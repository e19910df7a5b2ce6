//! The event-driven PreTE controller (§4, Figure 8; testbed §5).
//!
//! Wires the whole pipeline together: per-second telemetry in,
//! degradation detection, NN-grade prediction, Algorithm 1 tunnel
//! establishment, and the proactive TE recompute — with the latency
//! model attached so the replay reports whether preparation finished
//! before the cut (the §5 feasibility argument: most degradation→cut
//! intervals exceed the few seconds tunnels take).

use crate::latency::{LatencyModel, PipelineTiming};
use prete_core::prelude::*;
use prete_core::schemes::{TeContext, TeScheme};
use prete_nn::Predictor;
use prete_optical::trace::{detect_recorded, LossTrace};
use prete_optical::{DegradationEvent, DegradationFeatures};
use prete_topology::FiberId;
use serde::Serialize;

/// One thing the controller did, with its wall-clock offset.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ControllerEvent {
    /// A degradation was detected on a fiber at trace second `at_s`.
    DegradationDetected {
        /// The degraded fiber.
        fiber: FiberId,
        /// Second within the trace.
        at_s: f64,
        /// Predicted cut probability from the model.
        predicted_cut_prob: f64,
    },
    /// New tunnels were established.
    TunnelsEstablished {
        /// How many.
        count: usize,
        /// Second at which the last one was acknowledged.
        ready_at_s: f64,
    },
    /// The TE policy was recomputed.
    PolicyRecomputed {
        /// Maximum β-loss of the new policy.
        max_loss: f64,
        /// Second at which the policy was pushed.
        at_s: f64,
    },
    /// The fiber was cut.
    CutObserved {
        /// The cut fiber.
        fiber: FiberId,
        /// Second within the trace.
        at_s: f64,
    },
}

/// Outcome of a controller replay.
#[derive(Debug, Clone, Serialize)]
pub struct ControllerReport {
    /// Chronological event log.
    pub events: Vec<ControllerEvent>,
    /// Pipeline timing of the (first) degradation reaction.
    pub pipeline: Option<PipelineTiming>,
    /// Whether preparation (tunnels + policy) completed before the cut.
    pub prepared_before_cut: Option<bool>,
    /// Solver observability for the TE recompute (absent when the
    /// trace triggered no recompute).
    pub solver: Option<SolverStats>,
}

/// The PreTE controller: holds the scheme, predictor and latency model
/// and replays telemetry traces against them.
pub struct Controller<'a> {
    /// Network under control.
    pub net: &'a Network,
    /// Failure model (for static probabilities).
    pub model: &'a FailureModel,
    /// Current traffic.
    pub flows: &'a [Flow],
    /// Pre-established tunnels.
    pub base_tunnels: &'a TunnelSet,
    /// The failure predictor fed by degradation features.
    pub predictor: &'a dyn Predictor,
    /// The PreTE scheme used for recomputation.
    pub scheme: &'a dyn TeScheme,
    /// Stage latencies.
    pub latency: LatencyModel,
    /// Ignored: the LP engine is serial. Kept only because the
    /// `perfbench` workload still names it in a struct literal.
    pub threads: usize,
    /// LP engine for the TE recompute (default
    /// [`SolverBackend::SparseRevised`]; the dense tableau is the
    /// automatic fallback). Checkpoints record the choice so a restored
    /// controller keeps solving with the same engine.
    pub backend: SolverBackend,
    /// Entering-variable pricing rule for the sparse LP engine
    /// (checkpointed alongside `backend`).
    pub pricing: Pricing,
    /// Basis-update scheme for the sparse LP engine (checkpointed
    /// alongside `backend`).
    pub eta_update: EtaUpdate,
    /// Scenario enumeration budget for the TE recompute. `None` keeps
    /// the historical exhaustive single-cut enumeration; `Some` routes
    /// through the budgeted streaming enumerator ([`ScenarioSet::
    /// enumerate_with`]) — deeper cuts, mass-floor pruning, a bounded
    /// scenario buffer — and threads the resulting accounting
    /// (`scenarios_pruned`, `tail_mass`) into [`SolverStats`].
    pub scenario_budget: Option<ScenarioBudget>,
    /// Warm-start basis cache shared across replays (epochs): each TE
    /// recompute saves its optimal bases and the next one on the same
    /// problem structure restores them, skipping simplex phase 1.
    pub cache: std::cell::RefCell<BasisCache>,
    /// Telemetry sink: each replay runs under an `"epoch"` span with
    /// `"detect"`, `"predict"`, `"tunnel"` and `"solve"` children plus
    /// structured events. Defaults to [`Recorder::disabled`] (no-op).
    pub obs: Recorder,
}

impl<'a> Controller<'a> {
    /// Replays a single-fiber telemetry trace through the pipeline.
    ///
    /// Detection works on the trace exactly as the telemetry system
    /// would (threshold detector over the per-second loss series); the
    /// first detected degradation triggers prediction, Algorithm 1 and
    /// the TE recompute, all stamped with the latency model.
    pub fn replay_trace(&self, trace: &LossTrace) -> ControllerReport {
        let _epoch = self.obs.span("epoch");
        self.obs.add("controller.epochs", 1);
        let mut events = Vec::new();
        let detection = detect_recorded(trace, &self.obs);
        let mut pipeline = None;
        let mut prepared_before_cut = None;
        let mut solver = None;
        let cut_at = detection.cut_at_idx.map(|i| i as f64 * trace.dt_s as f64);

        if let Some(deg) = detection.degradations.first() {
            // The online detector needs a handful of consecutive
            // degraded samples to flag the event — it does not wait for
            // the window to end (the window often ends *because* the
            // fiber cut).
            const CONFIRM_SAMPLES: usize = 3;
            let at_s =
                (deg.start_idx + deg.len.min(CONFIRM_SAMPLES)) as f64 * trace.dt_s as f64;
            let fiber = trace.fiber;
            let fiber_meta = self.net.fiber(fiber);
            let event = DegradationEvent {
                fiber,
                start_s: trace.start_s + deg.start_idx as u64,
                duration_s: deg.len as u64,
                features: DegradationFeatures {
                    hour: ((trace.start_s / 3600) % 24) as u8,
                    degree_db: deg.degree_db,
                    gradient_db: deg.gradient_db,
                    fluctuation: deg.fluctuation,
                    region: fiber_meta.region,
                    fiber_id: fiber.index(),
                    length_km: fiber_meta.length_km,
                    vendor: fiber_meta.vendor,
                },
                led_to_cut: false,
                cut_delay_s: None,
            };
            let p = {
                let _predict = self.obs.span("predict");
                self.predictor.predict_proba(&event)
            };
            self.obs.event_with("prediction-fired", || {
                format!("fiber={} p_cut={p:.4}", fiber.index())
            });
            events.push(ControllerEvent::DegradationDetected {
                fiber,
                at_s,
                predicted_cut_prob: p,
            });
            // Reactive + proactive steps via the scheme.
            let ctx = TeContext {
                net: self.net,
                model: self.model,
                flows: self.flows,
                base_tunnels: self.base_tunnels,
            };
            let state = DegradationState::single(fiber);
            let (plan, new_tunnels, timing) = {
                let _tunnel = self.obs.span("tunnel");
                let plan = self.scheme.plan(&ctx, &state, None);
                // Schemes may *prune* tunnels as well as add them, so
                // the plan can be smaller than the base set — saturate
                // instead of underflowing (an update that removes
                // tunnels installs nothing new).
                let new_tunnels =
                    plan.tunnels.len().saturating_sub(self.base_tunnels.len());
                let timing = self.latency.pipeline(new_tunnels);
                (plan, new_tunnels, timing)
            };
            let ready_at_s = at_s + timing.total_ms() / 1000.0;
            let decision_at_s = at_s + timing.decision_ms() / 1000.0;
            // Loss bound of the recomputed policy for reporting.
            let probs = self.estimate_probs(&state, p);
            let (scenarios, enum_stats) = match &self.scenario_budget {
                Some(budget) => {
                    let (s, st) = ScenarioSet::enumerate_with(&probs, budget);
                    (s, Some(st))
                }
                None => (ScenarioSet::enumerate(&probs, 1, 0.0), None),
            };
            let problem = TeProblem::new(self.net, self.flows, &plan.tunnels, &scenarios);
            let mut cache = self.cache.borrow_mut();
            let mut solver_b = self
                .te_solver(&problem)
                .beta(0.99)
                .method(SolveMethod::Heuristic)
                .warm_cache(&mut cache)
                .recorder(&self.obs);
            if let Some(st) = enum_stats.as_ref() {
                solver_b = solver_b.scenario_stats(st);
            }
            let (sol, stats) = solver_b
                .solve_with_stats()
                .expect("heuristic solve under the default budget is infallible");
            drop(cache);
            solver = Some(stats);
            self.obs.event_with("policy-recomputed", || {
                format!("max_loss={:.6} at_s={decision_at_s:.3}", sol.max_loss)
            });
            events.push(ControllerEvent::PolicyRecomputed {
                max_loss: sol.max_loss,
                at_s: decision_at_s,
            });
            if new_tunnels > 0 {
                self.obs.event_with("tunnels-established", || {
                    format!("count={new_tunnels} ready_at_s={ready_at_s:.3}")
                });
                events.push(ControllerEvent::TunnelsEstablished {
                    count: new_tunnels,
                    ready_at_s,
                });
            }
            pipeline = Some(timing);
            prepared_before_cut = cut_at.map(|c| ready_at_s <= c);
        }
        if let Some(at) = cut_at {
            self.obs.event_with("cut-observed", || {
                format!("fiber={} at_s={at:.1}", trace.fiber.index())
            });
            events.push(ControllerEvent::CutObserved { fiber: trace.fiber, at_s: at });
        }
        if let Some(ok) = prepared_before_cut {
            self.obs.add(
                if ok { "controller.prepared_before_cut" } else { "controller.missed_cut" },
                1,
            );
        }
        ControllerReport { events, pipeline, prepared_before_cut, solver }
    }

    /// A solver for `problem` with this controller's engine settings
    /// (backend, pricing, basis updates) applied: every TE
    /// solve of this controller, or of a [`crate::robust::RobustController`]
    /// wrapping it, starts here.
    pub fn te_solver<'p, 'b, 'c>(&self, problem: &'p TeProblem<'b>) -> TeSolver<'p, 'b, 'c> {
        TeSolver::new(problem)
            .backend(self.backend)
            .pricing(self.pricing)
            .eta_update(self.eta_update)
    }

    /// Eqn 1 with the live prediction for the degraded fiber.
    fn estimate_probs(&self, state: &DegradationState, p_nn: f64) -> Vec<f64> {
        estimate_probs(self.model, state, p_nn)
    }
}

/// Eqn 1 cut probabilities: the live NN prediction for degraded fibers,
/// the discounted static prior for the rest. Shared by the plain and
/// robust controllers.
pub(crate) fn estimate_probs(
    model: &FailureModel,
    state: &DegradationState,
    p_nn: f64,
) -> Vec<f64> {
    model
        .profiles()
        .iter()
        .enumerate()
        .map(|(n, prof)| {
            if state.is_degraded(FiberId(n)) {
                p_nn
            } else {
                (1.0 - prete_optical::ALPHA_PREDICTABLE) * prof.p_cut
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
    use prete_core::examples::{triangle, triangle_flows};
    use prete_core::schemes::PreTeScheme;
    use prete_optical::trace::{synthesize, ScriptedDegradation, TraceConfig};

    struct OptimistPredictor;
    impl Predictor for OptimistPredictor {
        fn predict_proba(&self, _e: &DegradationEvent) -> f64 {
            0.8
        }
    }

    fn fig4b_trace() -> LossTrace {
        // §5 testbed scenario: healthy 0–65 s, degraded 65–110 s, cut
        // at 110 s.
        let deg = ScriptedDegradation {
            start_s: 65,
            duration_s: 45,
            degree_db: 6.0,
            wobble_db: 0.15,
        };
        synthesize(FiberId(0), 0, 400, &[deg], Some(110), TraceConfig::default(), 9)
    }

    #[test]
    fn replay_detects_prepares_and_beats_cut() {
        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let flows: Vec<Flow> = triangle_flows()
            .into_iter()
            .map(|f| Flow { demand_gbps: 4.0, ..f })
            .collect();
        // Thin tunnel set so the degradation actually triggers
        // Algorithm 1.
        let base = TunnelSet::initialize(&net, &flows, 1);
        let truth = TrueConditionals::ground_truth(&net, &model, 50, 1);
        let scheme = PreTeScheme::new(0.99, ProbabilityEstimator::prete(&model, &truth));
        let predictor = OptimistPredictor;
        let controller = Controller {
            net: &net,
            model: &model,
            flows: &flows,
            base_tunnels: &base,
            predictor: &predictor,
            scheme: &scheme,
            latency: LatencyModel::default(),
            threads: 0,
            backend: Default::default(),
            pricing: Default::default(),
            eta_update: Default::default(),
            scenario_budget: None,
            cache: Default::default(),
            obs: Default::default(),
        };
        let report = controller.replay_trace(&fig4b_trace());
        // Degradation detected, tunnels built, policy recomputed, cut seen.
        assert!(matches!(report.events[0], ControllerEvent::DegradationDetected { .. }));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, ControllerEvent::TunnelsEstablished { .. })));
        assert!(report
            .events
            .iter()
            .any(|e| matches!(e, ControllerEvent::CutObserved { .. })));
        // The cut comes 45 s after degradation onset; the pipeline takes
        // well under a second for a couple of tunnels.
        assert_eq!(report.prepared_before_cut, Some(true));
        let p = report.pipeline.expect("pipeline timing");
        assert!(p.decision_ms() < 300.0);
    }

    /// A scheme that *prunes* tunnels below the pre-established base
    /// set — the shape that used to underflow the new-tunnel count.
    struct PruningScheme;
    impl TeScheme for PruningScheme {
        fn name(&self) -> String {
            "prune".into()
        }
        fn reaction(&self) -> prete_core::schemes::ReactionModel {
            prete_core::schemes::ReactionModel::LocalRateAdaptation
        }
        fn plan(
            &self,
            ctx: &TeContext<'_>,
            _state: &DegradationState,
            _probs_override: Option<&[f64]>,
        ) -> prete_core::schemes::Plan {
            let tunnels = TunnelSet::initialize(ctx.net, ctx.flows, 1);
            let n = tunnels.len();
            prete_core::schemes::Plan {
                tunnels,
                allocation: vec![1.0; n],
                admitted: ctx.flows.iter().map(|f| f.demand_gbps).collect(),
            }
        }
    }

    #[test]
    fn pruning_scheme_does_not_underflow() {
        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let flows = triangle_flows();
        // Base set is *larger* than what the scheme will plan.
        let base = TunnelSet::initialize(&net, &flows, 2);
        let scheme = PruningScheme;
        let predictor = OptimistPredictor;
        let controller = Controller {
            net: &net,
            model: &model,
            flows: &flows,
            base_tunnels: &base,
            predictor: &predictor,
            scheme: &scheme,
            latency: LatencyModel::default(),
            threads: 0,
            backend: Default::default(),
            pricing: Default::default(),
            eta_update: Default::default(),
            scenario_budget: None,
            cache: Default::default(),
            obs: Default::default(),
        };
        let report = controller.replay_trace(&fig4b_trace());
        // Pruning installs nothing new: no establishment event, and the
        // pipeline runs with zero tunnel updates instead of panicking.
        assert!(!report
            .events
            .iter()
            .any(|e| matches!(e, ControllerEvent::TunnelsEstablished { .. })));
        assert!(matches!(report.events[0], ControllerEvent::DegradationDetected { .. }));
        assert_eq!(report.prepared_before_cut, Some(true));
    }

    #[test]
    fn healthy_trace_produces_no_events() {
        let net = triangle();
        let model = FailureModel::new(&net, 42);
        let flows = triangle_flows();
        let base = TunnelSet::initialize(&net, &flows, 2);
        let truth = TrueConditionals::ground_truth(&net, &model, 50, 1);
        let scheme = PreTeScheme::new(0.99, ProbabilityEstimator::prete(&model, &truth));
        let predictor = OptimistPredictor;
        let controller = Controller {
            net: &net,
            model: &model,
            flows: &flows,
            base_tunnels: &base,
            predictor: &predictor,
            scheme: &scheme,
            latency: LatencyModel::default(),
            threads: 0,
            backend: Default::default(),
            pricing: Default::default(),
            eta_update: Default::default(),
            scenario_budget: None,
            cache: Default::default(),
            obs: Default::default(),
        };
        let trace = synthesize(FiberId(0), 0, 300, &[], None, TraceConfig::default(), 4);
        let report = controller.replay_trace(&trace);
        assert!(report.events.is_empty());
        assert!(report.pipeline.is_none());
    }
}
