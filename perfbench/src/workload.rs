//! The three benchmark workloads: how each builds its controller inputs
//! (the timed set-up) and which telemetry windows it replays.

use prete_core::estimator::{ProbabilityEstimator, TrueConditionals};
use prete_core::prelude::*;
use prete_core::schemes::{Plan, ReactionModel, TeContext};
use prete_nn::{Mlp, Predictor, TrainConfig};
use prete_optical::trace::{synthesize, LossTrace, ScriptedDegradation, TraceConfig};
use prete_optical::DegradationEvent;
use prete_sim::latency::LatencyModel;
use prete_sim::Controller;
use prete_topology::FiberId;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Seeds of the controller's configuration: failure profiles, traffic,
/// the year of history the predictor trains on, the training run and the
/// Monte-Carlo true conditionals. They describe the deployed system, like
/// its topology, so they stay fixed: the workload seed only drives the
/// telemetry replayed through it, and every set-up does the same work.
const MODEL_SEED: u64 = 42;
const TRAFFIC_SEED: u64 = 42;
const HISTORY_SEED: u64 = 7;
const TRAIN_SEED: u64 = 1;
const TRUTH_SEED: u64 = 3;
/// Traffic load: 2 % of capacity at demand scale 1.
const LOAD: f64 = 0.02;
const TUNNELS_PER_FLOW: usize = 2;
/// One telemetry window: 15 minutes of 1 s samples.
const WINDOW_S: u64 = 900;
/// Fibers degraded per pass on the steady and k-cut workloads.
const TWAN_POOL: usize = 4;
const WAXMAN_POOL: usize = 8;
/// Distinct healthy windows pre-synthesized per fiber for B4.
const HEALTHY_VARIANTS: u64 = 8;
/// The B4 schedule takes clear live degradations: ones that sit well
/// between the detector's 3 dB degradation and 10 dB cut thresholds
/// (with at most 0.5 dB of sample wobble) and last a few seconds. Others
/// trigger the pipeline at random, or read as an immediate cut.
const B4_DEGREE_DB: std::ops::RangeInclusive<f64> = 3.5..=7.0;
const B4_MAX_WOBBLE_DB: f64 = 0.5;
const B4_MIN_DURATION_S: u64 = 5;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TWAN with a warm basis cache: the controller's steady state.
    TwanSteady,
    /// `gen:waxman:40` under a streaming 2-cut scenario budget; every
    /// solve misses the warm cache.
    Waxman2Cut,
    /// B4 telemetry at the failure model's own rate: mostly healthy
    /// windows that stop after detection.
    B4Telemetry,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TwanSteady,
        Workload::Waxman2Cut,
        Workload::B4Telemetry,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::TwanSteady => "twan-steady",
            Workload::Waxman2Cut => "waxman-2cut",
            Workload::B4Telemetry => "b4-telemetry",
        }
    }

    fn network(self) -> Network {
        match self {
            Workload::TwanSteady => topologies::twan(),
            Workload::Waxman2Cut => {
                prete_topology::generate::generate(&GenSpec::parse("gen:waxman:40").unwrap())
            }
            Workload::B4Telemetry => topologies::b4(),
        }
    }

    fn budget(self) -> Option<ScenarioBudget> {
        match self {
            Workload::Waxman2Cut => Some(ScenarioBudget {
                max_cuts: 2,
                max_scenarios: 64,
                ..ScenarioBudget::default()
            }),
            _ => None,
        }
    }

    /// The budget the traced run enumerates with: the workload's own,
    /// or the single-cut exhaustive set the controller uses without one.
    pub fn traced_budget(self) -> ScenarioBudget {
        self.budget().unwrap_or(ScenarioBudget {
            max_cuts: 1,
            ..ScenarioBudget::default()
        })
    }
}

/// Wall times of one set-up, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub topology_ms: f64,
    pub dataset_ms: f64,
    pub train_ms: f64,
    pub truth_ms: f64,
    pub tunnels_ms: f64,
    pub warmup_ms: f64,
}

/// The trained MLP behind a timer and a call counter.
pub struct TimedPredictor {
    inner: Mlp,
    pub calls: Cell<u64>,
    pub nanos: Cell<u64>,
}

impl Predictor for TimedPredictor {
    fn predict_proba(&self, event: &DegradationEvent) -> f64 {
        let t = Instant::now();
        let p = self.inner.predict_proba(event);
        self.nanos
            .set(self.nanos.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        p
    }
}

/// The PreTE scheme behind a timer, counting the tunnels each plan adds
/// and checking every plan's allocation against the trunk capacities
/// (Eqn 3's capacity rows).
pub struct CheckedScheme {
    inner: PreTeScheme,
    groups: CapacityGroups,
    pub plans: Cell<u64>,
    pub nanos: Cell<u64>,
    pub new_tunnels: Cell<u64>,
    /// First failed check since the last [`CheckedScheme::take_error`].
    error: RefCell<Option<String>>,
}

impl CheckedScheme {
    pub fn take_error(&self) -> Option<String> {
        self.error.borrow_mut().take()
    }

    fn check(&self, plan: &Plan) -> Result<(), String> {
        if let Some(a) = plan
            .allocation
            .iter()
            .find(|a| !a.is_finite() || **a < -1e-9)
        {
            return Err(format!(
                "plan allocation {a} is not finite and non-negative"
            ));
        }
        let mut load = vec![0.0; self.groups.len()];
        for t in plan.tunnels.tunnels() {
            for g in self.groups.groups_of_path(&t.path.links) {
                load[g] += plan.allocation[t.id.index()];
            }
        }
        for (g, &l) in load.iter().enumerate() {
            let cap = self.groups.capacity(g);
            if l > cap * (1.0 + 1e-6) + 1e-6 {
                return Err(format!(
                    "plan loads trunk {g} with {l} Gbps > capacity {cap}"
                ));
            }
        }
        Ok(())
    }
}

impl TeScheme for CheckedScheme {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn reaction(&self) -> ReactionModel {
        self.inner.reaction()
    }

    fn state_aware(&self) -> bool {
        self.inner.state_aware()
    }

    fn plan(&self, ctx: &TeContext<'_>, state: &DegradationState, probs: Option<&[f64]>) -> Plan {
        let t = Instant::now();
        let plan = self.inner.plan(ctx, state, probs);
        self.nanos
            .set(self.nanos.get() + t.elapsed().as_nanos() as u64);
        self.plans.set(self.plans.get() + 1);
        let added = plan.tunnels.len().saturating_sub(ctx.base_tunnels.len());
        self.new_tunnels.set(self.new_tunnels.get() + added as u64);
        if let Err(e) = self.check(&plan) {
            self.error.borrow_mut().get_or_insert(e);
        }
        plan
    }
}

/// Everything the controller borrows, built by one timed set-up.
pub struct Inputs {
    pub workload: Workload,
    pub net: Network,
    pub model: FailureModel,
    pub flows: Vec<Flow>,
    pub tunnels: TunnelSet,
    pub predictor: TimedPredictor,
    pub scheme: CheckedScheme,
    pub times: SetupTimes,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

impl Inputs {
    /// Builds the topology, failure model, a year of telemetry history,
    /// the predictor trained on it, true conditionals and base tunnels.
    pub fn build(workload: Workload) -> Inputs {
        let mut times = SetupTimes::default();
        let t = Instant::now();
        let net = workload.network();
        let model = FailureModel::new(&net, MODEL_SEED);
        times.topology_ms = ms_since(t);

        let t = Instant::now();
        let history = Dataset::generate(&net, &model, DatasetConfig::one_year(HISTORY_SEED));
        times.dataset_ms = ms_since(t);

        let t = Instant::now();
        let (train, _) = history.train_test_split(0.8);
        let mlp = Mlp::train(
            &train,
            TrainConfig {
                seed: TRAIN_SEED,
                ..TrainConfig::default()
            },
        );
        times.train_ms = ms_since(t);

        let t = Instant::now();
        let truth = TrueConditionals::ground_truth(&net, &model, 100, TRUTH_SEED);
        times.truth_ms = ms_since(t);

        let t = Instant::now();
        let flows = topologies::flows_for(&net, LOAD, TRAFFIC_SEED);
        let tunnels = TunnelSet::initialize(&net, &flows, TUNNELS_PER_FLOW);
        times.tunnels_ms = ms_since(t);

        let scheme = CheckedScheme {
            inner: PreTeScheme::new(0.999, ProbabilityEstimator::prete(&model, &truth)),
            groups: CapacityGroups::build(&net),
            plans: Cell::new(0),
            nanos: Cell::new(0),
            new_tunnels: Cell::new(0),
            error: RefCell::new(None),
        };
        let predictor = TimedPredictor {
            inner: mlp,
            calls: Cell::new(0),
            nanos: Cell::new(0),
        };
        Inputs {
            workload,
            net,
            model,
            flows,
            tunnels,
            predictor,
            scheme,
            times,
        }
    }

    /// The one place the benchmark builds a controller. Solver knobs stay
    /// at their defaults so a default flip shows up end to end.
    pub fn controller(&self) -> Controller<'_> {
        Controller {
            net: &self.net,
            model: &self.model,
            flows: &self.flows,
            base_tunnels: &self.tunnels,
            predictor: &self.predictor,
            scheme: &self.scheme,
            latency: LatencyModel::default(),
            threads: Default::default(),
            backend: Default::default(),
            pricing: Default::default(),
            eta_update: Default::default(),
            scenario_budget: self.workload.budget(),
            cache: Default::default(),
            obs: Recorder::disabled(),
        }
    }
}

/// One telemetry window to replay.
pub struct Window {
    pub trace: LossTrace,
    /// The window was synthesized with a cut inside it.
    pub has_cut: bool,
    /// The window holds a strong scripted degradation that the detector
    /// must flag (so the replay must run the full pipeline).
    pub must_trigger: bool,
}

/// Splitmix64, the repo's standard seed-expansion step.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic stream of uniforms in `[0, 1)`.
struct Stream(u64);

impl Stream {
    fn new(seed: u64, tag: u64, index: u64) -> Stream {
        Stream(mix(
            mix(seed ^ tag.wrapping_mul(0x5851_f42d_4c95_7f2d)) ^ index
        ))
    }

    fn uniform(&mut self) -> f64 {
        self.0 = mix(self.0);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        (self.uniform() * n as f64) as u64 % n
    }
}

fn shuffled(items: &[FiberId], seed: u64, pass: u64) -> Vec<FiberId> {
    let mut v = items.to_vec();
    let mut s = Stream::new(seed, 1, pass);
    for i in (1..v.len()).rev() {
        v.swap(i, s.below(i as u64 + 1) as usize);
    }
    v
}

/// A strong scripted degradation (4–8 dB for 20–300 s), cut in half of
/// the windows a while after it ends.
fn scripted_window(fiber: FiberId, seed: u64, index: u64) -> Window {
    let mut s = Stream::new(seed, 2, index);
    let start_s = 60 + s.below(300);
    let duration_s = 20 + s.below(280);
    let deg = ScriptedDegradation {
        start_s,
        duration_s,
        degree_db: 4.0 + 4.0 * s.uniform(),
        wobble_db: 0.05 + 0.3 * s.uniform(),
    };
    let cut_at = (s.uniform() < 0.5).then(|| start_s + duration_s + 10 + s.below(200));
    let cfg = TraceConfig {
        missing_prob: 0.005,
        ..TraceConfig::default()
    };
    let trace = synthesize(fiber, index * WINDOW_S, WINDOW_S, &[deg], cut_at, cfg, s.0);
    Window {
        trace,
        has_cut: cut_at.is_some(),
        must_trigger: true,
    }
}

/// Which window each replay gets.
pub struct Schedule {
    workload: Workload,
    seed: u64,
    fibers: usize,
    /// Degraded fibers of the steady and k-cut workloads.
    pool: Vec<FiberId>,
    /// B4: ticks after which the live schedule repeats.
    period: u64,
    /// B4: live events keyed by `(tick, fiber)`.
    events: BTreeMap<(u64, usize), (Option<ScriptedDegradation>, Option<u64>)>,
    /// B4: pre-synthesized healthy windows, `HEALTHY_VARIANTS` per fiber.
    healthy: Vec<LossTrace>,
}

/// B4 telemetry: 1 % of samples go missing.
fn b4_trace_config() -> TraceConfig {
    TraceConfig {
        missing_prob: 0.01,
        ..TraceConfig::default()
    }
}

impl Schedule {
    pub fn new(inputs: &Inputs, seed: u64) -> Schedule {
        let fibers = inputs.net.num_fibers();
        let pool_len = match inputs.workload {
            Workload::TwanSteady => TWAN_POOL,
            Workload::Waxman2Cut => WAXMAN_POOL,
            Workload::B4Telemetry => 0,
        };
        let pool = (0..pool_len)
            .map(|k| FiberId(k * fibers / pool_len))
            .collect();
        let mut schedule = Schedule {
            workload: inputs.workload,
            seed,
            fibers,
            pool,
            period: 1,
            events: BTreeMap::new(),
            healthy: Vec::new(),
        };
        if inputs.workload == Workload::B4Telemetry {
            schedule.place_b4_events(inputs);
        }
        schedule
    }

    /// Places a live year of B4 events, generated from the workload seed,
    /// on a repeating schedule of ticks.
    ///
    /// The schedule holds each fiber's first clear degradation of the
    /// year, in the year's order, with its features and cut delay. The
    /// events are spaced evenly at the failure model's expected rate (sum
    /// of per-fiber degradation probabilities per tick), so the share of
    /// windows that run the full pipeline is the model's own rate in every
    /// run instead of a Poisson draw. Abrupt cuts of the year that fall in
    /// the schedule's ticks keep their tick. Repair downtime is not
    /// modelled. The schedule then repeats, so after the warm-up pass
    /// every triggered solve restores a cached basis, as in a long-running
    /// controller.
    fn place_b4_events(&mut self, inputs: &Inputs) {
        let live = Dataset::generate(
            &inputs.net,
            &inputs.model,
            DatasetConfig::one_year(self.seed),
        );
        // Each fiber's first clear degradation. The detector's baseline is
        // the window's 5th-percentile loss, so a window with fewer healthy
        // samples than that reads the event as healthy (or as a bare cut).
        // Such a window stays, and the fiber takes its next clear
        // degradation too, so every fiber triggers once per period.
        let mut covered = vec![false; self.fibers];
        let mut chosen = Vec::new();
        for e in &live.events {
            let f = e.fiber.index();
            if covered[f]
                || !B4_DEGREE_DB.contains(&e.features.degree_db)
                || e.duration_s < B4_MIN_DURATION_S
            {
                continue;
            }
            let offset = e.start_s % WINDOW_S;
            let deg = ScriptedDegradation {
                start_s: offset,
                duration_s: e.duration_s.min(WINDOW_S - offset),
                degree_db: e.features.degree_db,
                wobble_db: e.features.gradient_db.min(B4_MAX_WOBBLE_DB),
            };
            let cut = e.cut_delay_s.map(|d| offset + d).filter(|&c| c < WINDOW_S);
            let end = offset + deg.duration_s;
            let healthy = match cut {
                None => WINDOW_S - deg.duration_s,
                Some(c) => offset.min(c) + c.saturating_sub(end),
            };
            covered[f] = healthy > WINDOW_S / 20;
            chosen.push((f, deg, cut));
        }
        let rate: f64 = inputs
            .model
            .profiles()
            .iter()
            .map(|p| p.p_degradation)
            .sum();
        self.period = ((chosen.len() as f64 / rate).round() as u64).max(1);
        for (j, (f, deg, cut)) in chosen.into_iter().enumerate() {
            let tick = (j as f64 / rate).round() as u64;
            self.events.insert((tick, f), (Some(deg), cut));
        }
        for c in live
            .cuts
            .iter()
            .filter(|c| !c.predictable && c.at_s / WINDOW_S < self.period)
        {
            self.events
                .entry((c.at_s / WINDOW_S, c.fiber.index()))
                .or_insert((None, Some(c.at_s % WINDOW_S)));
        }
        for f in 0..self.fibers {
            for v in 0..HEALTHY_VARIANTS {
                let seed = Stream::new(self.seed, 3, f as u64 * HEALTHY_VARIANTS + v).0;
                let cfg = b4_trace_config();
                self.healthy
                    .push(synthesize(FiberId(f), 0, WINDOW_S, &[], None, cfg, seed));
            }
        }
    }

    /// Replays per cycle: one pass over the pool, or one period of B4
    /// ticks. The run stops on a cycle boundary, so every run replays the
    /// same mix of windows.
    pub fn cycle_len(&self) -> usize {
        match self.workload {
            Workload::B4Telemetry => self.period as usize * self.fibers,
            _ => self.pool.len(),
        }
    }

    /// Replays per block when the traced run alternates traced and
    /// untraced blocks: whole cycles, except on the k-cut workload, whose
    /// epochs are all distinct anyway.
    pub fn trace_block(&self) -> usize {
        match self.workload {
            Workload::Waxman2Cut => 1,
            _ => self.cycle_len(),
        }
    }

    /// Whether the warm cache is emptied before replay `i`: the k-cut
    /// workload degrades each pool fiber once per pass and starts every
    /// pass cold, so every solve misses.
    pub fn clears_cache_before(&self, i: usize) -> bool {
        self.workload == Workload::Waxman2Cut && i.is_multiple_of(self.pool.len())
    }

    /// The untimed warm-up pass: one strong degradation per pool fiber on
    /// TWAN, and every degraded window of the B4 period. The k-cut
    /// workload has none.
    pub fn warmup(&self) -> Vec<Window> {
        match self.workload {
            Workload::TwanSteady => self
                .pool
                .iter()
                .enumerate()
                .map(|(k, &f)| scripted_window(f, self.seed ^ 0x5741_524d, k as u64))
                .collect(),
            Workload::Waxman2Cut => Vec::new(),
            Workload::B4Telemetry => self
                .events
                .iter()
                .filter(|(_, (deg, _))| deg.is_some())
                .map(|(&(tick, f), _)| self.window(tick as usize * self.fibers + f))
                .collect(),
        }
    }

    /// The window of timed replay `i`.
    pub fn window(&self, i: usize) -> Window {
        match self.workload {
            Workload::TwanSteady | Workload::Waxman2Cut => {
                let pass = (i / self.pool.len()) as u64;
                let fiber = shuffled(&self.pool, self.seed, pass)[i % self.pool.len()];
                scripted_window(fiber, self.seed, i as u64)
            }
            Workload::B4Telemetry => {
                let tick = (i / self.fibers) as u64 % self.period;
                let f = i % self.fibers;
                let start_s = (i / self.fibers) as u64 * WINDOW_S;
                match self.events.get(&(tick, f)) {
                    Some((deg, cut)) => {
                        // Same trace every period, so the prediction and
                        // the cached basis repeat too.
                        let seed =
                            Stream::new(self.seed, 4, tick * self.fibers as u64 + f as u64).0;
                        let degs = deg.as_slice();
                        let cfg = b4_trace_config();
                        let trace = synthesize(
                            FiberId(f),
                            tick * WINDOW_S,
                            WINDOW_S,
                            degs,
                            *cut,
                            cfg,
                            seed,
                        );
                        Window {
                            trace,
                            has_cut: cut.is_some(),
                            must_trigger: false,
                        }
                    }
                    None => {
                        let v = Stream::new(self.seed, 5, i as u64).below(HEALTHY_VARIANTS);
                        let mut trace =
                            self.healthy[f * HEALTHY_VARIANTS as usize + v as usize].clone();
                        trace.start_s = start_s;
                        Window {
                            trace,
                            has_cut: false,
                            must_trigger: false,
                        }
                    }
                }
            }
        }
    }
}
