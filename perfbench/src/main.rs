//! Controller-epoch benchmark.
//!
//! Replays generated telemetry windows through
//! `prete_sim::Controller::replay_trace` in a closed loop (one process,
//! one controller, each replay issued after the previous one returns)
//! and reports end-to-end metrics, or per-layer metrics with `--trace 1`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload twan-steady|waxman-2cut|b4-telemetry --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --selfcheck --seed N [--workload NAME]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits
//! non-zero when any output check fails. `--selfcheck` replays a fixed
//! prefix of each workload twice at one seed (untraced, then traced) and
//! exits non-zero unless every deterministic output is identical.

mod workload;

use prete_core::prelude::*;
use prete_sim::{Controller, ControllerEvent, ControllerReport};
use prete_topology::FiberId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Inputs, Schedule, SetupTimes, Window, Workload};

/// Complete set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Replays needed beyond a percentile for it to count as the tail.
const TAIL_BEYOND: usize = 10;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            args.selfcheck = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} takes a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.selfcheck && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// What one replay did, after the output checks.
struct Outcome {
    wall_s: f64,
    samples: usize,
    triggered: bool,
    /// The first failed check, or the panic.
    error: Option<String>,
    /// The window held a cut that the detector did not report.
    missed_cut: bool,
    solver: Option<SolverStats>,
    max_loss: Option<f64>,
    predicted: Option<(FiberId, f64)>,
    plan_ns: u64,
    plans: u64,
    new_tunnels: u64,
    predict_ns: u64,
    predictions: u64,
}

/// Checks one controller report against the window it replayed.
fn check(report: &ControllerReport, window: &Window) -> Result<(), String> {
    let pos = |want: fn(&ControllerEvent) -> bool| report.events.iter().position(want);
    let detected = pos(|e| matches!(e, ControllerEvent::DegradationDetected { .. }));
    let pushed = pos(|e| matches!(e, ControllerEvent::PolicyRecomputed { .. }));
    match (detected, pushed) {
        (None, None) if window.must_trigger => Err("scripted degradation was not detected".into()),
        (None, None) => Ok(()),
        (Some(d), Some(p)) if d < p => match (&report.events[p], &report.solver) {
            (ControllerEvent::PolicyRecomputed { max_loss: l, .. }, _)
                if !(l.is_finite() && (-1e-9..=1.0 + 1e-9).contains(l)) =>
            {
                Err(format!("max_loss {l} is outside [0, 1]"))
            }
            (_, None) => Err("policy pushed without solver stats".into()),
            (_, Some(s)) if s.suspect_solves > 0 => {
                Err(format!("{} suspect LP solves", s.suspect_solves))
            }
            _ => Ok(()),
        },
        _ => Err(format!(
            "degradation/policy events out of order: {:?}",
            report.events
        )),
    }
}

fn replay(ctl: &Controller<'_>, inputs: &Inputs, window: &Window) -> Outcome {
    let (plan_ns, plans, added) = (
        inputs.scheme.nanos.get(),
        inputs.scheme.plans.get(),
        inputs.scheme.new_tunnels.get(),
    );
    let (predict_ns, predictions) = (inputs.predictor.nanos.get(), inputs.predictor.calls.get());
    let t = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| ctl.replay_trace(&window.trace)));
    let wall_s = t.elapsed().as_secs_f64();
    let plan_error = inputs.scheme.take_error();
    let mut out = Outcome {
        wall_s,
        samples: window.trace.samples.len(),
        triggered: false,
        error: None,
        missed_cut: false,
        solver: None,
        max_loss: None,
        predicted: None,
        plan_ns: inputs.scheme.nanos.get() - plan_ns,
        plans: inputs.scheme.plans.get() - plans,
        new_tunnels: inputs.scheme.new_tunnels.get() - added,
        predict_ns: inputs.predictor.nanos.get() - predict_ns,
        predictions: inputs.predictor.calls.get() - predictions,
    };
    let report = match result {
        Ok(r) => r,
        Err(_) => {
            out.error = Some("replay panicked".into());
            return out;
        }
    };
    for e in &report.events {
        match e {
            ControllerEvent::DegradationDetected {
                fiber,
                predicted_cut_prob,
                ..
            } => {
                out.triggered = true;
                out.predicted = Some((*fiber, *predicted_cut_prob));
            }
            ControllerEvent::PolicyRecomputed { max_loss, .. } => out.max_loss = Some(*max_loss),
            _ => {}
        }
    }
    out.missed_cut = window.has_cut
        && !report
            .events
            .iter()
            .any(|e| matches!(e, ControllerEvent::CutObserved { .. }));
    out.error = plan_error.or(check(&report, window).err());
    out.solver = report.solver;
    out
}

/// The traced run's extra call into `core::scenario`: enumerates the
/// epoch's Eqn 1 probabilities under the workload's budget.
fn enumerate(inputs: &Inputs, fiber: FiberId, p_nn: f64) -> (f64, EnumerationStats, usize) {
    let probs: Vec<f64> = inputs
        .model
        .profiles()
        .iter()
        .enumerate()
        .map(|(n, prof)| {
            if n == fiber.index() {
                p_nn
            } else {
                (1.0 - prete_optical::ALPHA_PREDICTABLE) * prof.p_cut
            }
        })
        .collect();
    let t = Instant::now();
    let (set, stats) = ScenarioSet::enumerate_with(&probs, &inputs.workload.traced_budget());
    (t.elapsed().as_secs_f64() * 1e3, stats, set.len())
}

/// Running sums over replays.
#[derive(Default)]
struct Totals {
    replays: u64,
    failed: u64,
    triggered: u64,
    samples: u64,
    missed_cuts: u64,
    wall_s: f64,
    react_ms: Vec<f64>,
    /// Replays and wall time with tracing on / off (trace mode only).
    traced: (u64, f64),
    untraced: (u64, f64),
    traced_plan_ms: f64,
    solves: u64,
    policies: u64,
    stats: SolverStats,
    plans: u64,
    plan_ns: u64,
    new_tunnels: u64,
    predictions: u64,
    predict_ns: u64,
    enumerations: u64,
    enumerate_ms: f64,
    visited: u64,
    kept: u64,
    pruned: u64,
    tail_mass: f64,
}

impl Totals {
    fn add(&mut self, o: &Outcome, traced: Option<bool>) {
        self.replays += 1;
        self.samples += o.samples as u64;
        self.wall_s += o.wall_s;
        self.missed_cuts += o.missed_cut as u64;
        if let Some(e) = &o.error {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("check failed: {e}");
            }
        }
        if o.triggered {
            self.triggered += 1;
            self.react_ms.push(o.wall_s * 1e3);
        }
        match traced {
            Some(true) => {
                self.traced.0 += 1;
                self.traced.1 += o.wall_s;
                self.traced_plan_ms += o.plan_ns as f64 / 1e6;
            }
            Some(false) => {
                self.untraced.0 += 1;
                self.untraced.1 += o.wall_s;
            }
            None => {}
        }
        if let Some(s) = &o.solver {
            self.solves += 1;
            self.stats.merge(s);
        }
        self.policies += o.max_loss.is_some() as u64;
        self.plans += o.plans;
        self.plan_ns += o.plan_ns;
        self.new_tunnels += o.new_tunnels;
        self.predictions += o.predictions;
        self.predict_ns += o.predict_ns;
    }

    fn add_enumeration(&mut self, ms: f64, st: &EnumerationStats, kept: usize) {
        self.enumerations += 1;
        self.enumerate_ms += ms;
        self.visited += st.visited;
        self.kept += kept as u64;
        self.pruned += st.scenarios_pruned;
        self.tail_mass += st.truncated_tail;
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: `(value, percentile)`. With too few samples it is the maximum.
fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n > TAIL_BEYOND {
        let k = n - TAIL_BEYOND - 1;
        (s[k], 100.0 * (k + 1) as f64 / n as f64)
    } else {
        (s[n - 1], 100.0)
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The timed closed loop: replays until `seconds` have passed, stopping
/// on a cycle boundary. With `live` set, alternate blocks of replays run
/// under the live recorder.
fn measure(
    ctl: &mut Controller<'_>,
    inputs: &Inputs,
    schedule: &Schedule,
    seconds: f64,
    live: Option<&Recorder>,
) -> Totals {
    let mut totals = Totals::default();
    let cycle = schedule.cycle_len();
    let block = schedule.trace_block();
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    // A traced run needs at least one untraced and one traced block.
    let min_replays = if live.is_some() { 2 * block } else { 1 };
    let mut i = 0;
    while i % cycle != 0 || i < min_replays || start.elapsed() < budget {
        if schedule.clears_cache_before(i) {
            ctl.cache.borrow_mut().clear();
        }
        let traced = live.map(|_| (i / block) % 2 == 1);
        ctl.obs = match (live, traced) {
            (Some(rec), Some(true)) => rec.clone(),
            _ => Recorder::disabled(),
        };
        let window = schedule.window(i);
        let out = replay(ctl, inputs, &window);
        totals.add(&out, traced);
        if let (Some(true), Some((fiber, p))) = (traced, out.predicted) {
            let (ms, st, kept) = enumerate(inputs, fiber, p);
            totals.add_enumeration(ms, &st, kept);
        }
        i += 1;
    }
    ctl.obs = Recorder::disabled();
    totals
}

/// Per-stage wall time of the traced epochs, from the live recorder's
/// span tree: `(stage, total ms)` plus the summed epoch time.
fn stage_table(report: &RunReport) -> (Vec<(String, f64)>, f64, u64) {
    let mut rows: Vec<(String, f64)> = Vec::new();
    let (mut epoch_ms, mut epochs) = (0.0, 0);
    for root in report.spans.iter().filter(|s| s.name == "epoch") {
        epoch_ms += root.duration_ms;
        epochs += 1;
        for c in &root.children {
            match rows.iter_mut().find(|(n, _)| *n == c.name) {
                Some(row) => row.1 += c.duration_ms,
                None => rows.push((c.name.clone(), c.duration_ms)),
            }
        }
    }
    let attributed: f64 = rows.iter().map(|r| r.1).sum();
    rows.push(("unattributed".into(), epoch_ms - attributed));
    (rows, epoch_ms, epochs)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Runs one workload: [`SETUPS`] complete set-ups (each with its warm-up
/// pass), then the timed loop on the last one.
fn run(workload: Workload, args: &Args, process_start: Instant) -> (Vec<Metric>, Totals) {
    let mut setup_s = Vec::new();
    let mut times: Vec<SetupTimes> = Vec::new();
    let mut warm = Totals::default();
    for k in 0..SETUPS {
        let t = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let inputs = Inputs::build(workload);
        let schedule = Schedule::new(&inputs, args.seed);
        let mut ctl = inputs.controller();
        let tw = Instant::now();
        for window in schedule.warmup() {
            warm.add(&replay(&ctl, &inputs, &window), None);
        }
        let mut st = inputs.times;
        st.warmup_ms = tw.elapsed().as_secs_f64() * 1e3;
        times.push(st);
        setup_s.push(t.elapsed().as_secs_f64());
        if k + 1 < SETUPS {
            continue;
        }

        let live = args.trace.then(Recorder::live);
        let timed = measure(&mut ctl, &inputs, &schedule, args.seconds, live.as_ref());
        let mut metrics = Vec::new();
        if !args.trace {
            // No triggered replay leaves the reaction metrics undefined,
            // which fails the run.
            let react = if timed.react_ms.is_empty() {
                vec![f64::NAN]
            } else {
                timed.react_ms.clone()
            };
            let (tail_ms, pct) = tail(&react);
            println!(
                "{}: {} replays ({} triggered, {} failed) in {:.3} s of replay time; \
                 react_ms_tail is p{pct:.1} of {} triggered replays",
                workload.name(),
                timed.replays,
                timed.triggered,
                timed.failed,
                timed.wall_s,
                react.len()
            );
            metrics.push(m("setup_s", median(&setup_s), "s"));
            metrics.push(m("react_ms_p50", median(&react), "ms"));
            metrics.push(m("react_ms_tail", tail_ms, "ms"));
            metrics.push(m(
                "epochs_per_s",
                timed.replays as f64 / timed.wall_s,
                "1/s",
            ));
            metrics.push(m("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN), "MB"));
        } else {
            let report = live.expect("trace mode has a recorder").report();
            metrics = layer_metrics(workload, args.seed, &report, &timed, &times);
        }
        let all = Totals {
            replays: warm.replays + timed.replays,
            failed: warm.failed + timed.failed,
            ..timed
        };
        return (metrics, all);
    }
    unreachable!("SETUPS > 0")
}

fn layer_metrics(
    workload: Workload,
    seed: u64,
    report: &RunReport,
    t: &Totals,
    times: &[SetupTimes],
) -> Vec<Metric> {
    let (rows, epoch_ms, epochs) = stage_table(report);
    let stage = |name: &str| rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.1);
    println!(
        "{}: stage shares over {epochs} traced epochs ({epoch_ms:.3} ms)",
        workload.name()
    );
    for (name, ms) in &rows {
        println!(
            "  {name:<13} {ms:>12.3} ms {:>6.2} %",
            100.0 * ratio(*ms, epoch_ms)
        );
    }
    let share_sum: f64 = rows.iter().map(|r| 100.0 * ratio(r.1, epoch_ms)).sum();
    println!("  {:<13} {epoch_ms:>12.3} ms {share_sum:>6.2} %", "total");
    println!(
        "  tunnel includes plan (core::schemes) {:.3} ms, {:.2} % of epoch time",
        t.traced_plan_ms,
        100.0 * ratio(t.traced_plan_ms, epoch_ms)
    );
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("spans-{}-seed{seed}.json", workload.name()));
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, report.to_json())) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    let setup = |f: fn(&SetupTimes) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    // Times are per traced epoch, per plan or per solve; work counts are
    // per solve or per enumeration, so they compare across runs of
    // different length.
    let per_epoch = |ms: f64| ratio(ms, epochs as f64);
    let per_solve = |n: u64| ratio(n as f64, t.solves as f64);
    let per_call = |n: u64| ratio(n as f64, t.enumerations as f64);
    let s = &t.stats;
    let overhead = 100.0
        * (ratio(t.traced.1, t.traced.0 as f64) / ratio(t.untraced.1, t.untraced.0 as f64) - 1.0);
    vec![
        m("controller.epoch_ms", per_epoch(epoch_ms), "ms"),
        m(
            "controller.unattributed_ms",
            per_epoch(stage("unattributed")),
            "ms",
        ),
        m(
            "controller.triggered_ratio",
            ratio(t.triggered as f64, t.replays as f64),
            "ratio",
        ),
        m("optical.detect_ms", per_epoch(stage("detect")), "ms"),
        m("optical.samples", t.samples as f64, "count"),
        m("optical.missed_cut_windows", t.missed_cuts as f64, "count"),
        m("nn.train_s", setup(|x| x.train_ms) / 1e3, "s"),
        m(
            "nn.predict_us",
            ratio(t.predict_ns as f64 / 1e3, t.predictions as f64),
            "us",
        ),
        m("nn.predictions", t.predictions as f64, "count"),
        m(
            "core.plan_ms",
            ratio(t.plan_ns as f64 / 1e6, t.plans as f64),
            "ms",
        ),
        m(
            "core.new_tunnels",
            ratio(t.new_tunnels as f64, t.plans as f64),
            "count/epoch",
        ),
        m(
            "core.useful_solve_ratio",
            ratio(t.policies as f64, (t.plans + t.solves) as f64),
            "ratio",
        ),
        m(
            "scenario.enumerate_ms",
            ratio(t.enumerate_ms, t.enumerations as f64),
            "ms",
        ),
        m("scenario.visited", per_call(t.visited), "count/call"),
        m("scenario.kept", per_call(t.kept), "count/call"),
        m("scenario.pruned", per_call(t.pruned), "count/call"),
        m(
            "scenario.tail_mass",
            ratio(t.tail_mass, t.enumerations as f64),
            "prob",
        ),
        m("solve.total_ms", ratio(s.total_ms, t.solves as f64), "ms"),
        m(
            "solve.subproblem_ms",
            ratio(s.subproblem_ms, t.solves as f64),
            "ms",
        ),
        m("solve.polish_ms", ratio(s.polish_ms, t.solves as f64), "ms"),
        m("lp.solves", per_solve(s.lp_solves as u64), "count/solve"),
        m("lp.pivots", per_solve(s.pivots as u64), "count/solve"),
        m(
            "lp.refactorizations",
            per_solve(s.refactorizations),
            "count/solve",
        ),
        m("lp.fill_in", per_solve(s.fill_in), "count/solve"),
        m(
            "lp.us_per_pivot",
            ratio(s.total_ms * 1e3, s.pivots as f64),
            "us",
        ),
        m("lp.dense_fallbacks", s.dense_fallbacks as f64, "count"),
        m("lp.suspect_solves", s.suspect_solves as f64, "count"),
        m("warm.hits", per_solve(s.warm_hits as u64), "count/solve"),
        m(
            "warm.misses",
            per_solve(s.warm_misses as u64),
            "count/solve",
        ),
        m(
            "warm.hit_ratio",
            ratio(s.warm_hits as f64, (s.warm_hits + s.warm_misses) as f64),
            "ratio",
        ),
        m("setup.topology_ms", setup(|x| x.topology_ms), "ms"),
        m("setup.dataset_ms", setup(|x| x.dataset_ms), "ms"),
        m("setup.truth_ms", setup(|x| x.truth_ms), "ms"),
        m("setup.tunnels_ms", setup(|x| x.tunnels_ms), "ms"),
        m("setup.warmup_ms", setup(|x| x.warmup_ms), "ms"),
        m("obs.overhead_pct", overhead, "%"),
    ]
}

/// The deterministic outputs of one replay.
#[derive(Debug, PartialEq)]
struct DetRecord {
    triggered: bool,
    lp_solves: usize,
    pivots: usize,
    refactorizations: u64,
    warm_hits: usize,
    warm_misses: usize,
    kept: usize,
    new_tunnels: u64,
    max_loss_bits: Option<u64>,
}

/// Replays the warm-up pass and a fixed prefix of the timed replays:
/// two TWAN passes, two k-cut epochs, or one B4 period.
fn det_run(workload: Workload, seed: u64, traced: bool) -> Vec<DetRecord> {
    let inputs = Inputs::build(workload);
    let schedule = Schedule::new(&inputs, seed);
    let mut ctl = inputs.controller();
    if traced {
        ctl.obs = Recorder::live();
    }
    let mut records = Vec::new();
    let mut record = |ctl: &Controller<'_>, window: &Window| {
        let o = replay(ctl, &inputs, window);
        let kept = o.predicted.map_or(0, |(f, p)| enumerate(&inputs, f, p).2);
        let s = o.solver.clone().unwrap_or_default();
        records.push(DetRecord {
            triggered: o.triggered,
            lp_solves: s.lp_solves,
            pivots: s.pivots,
            refactorizations: s.refactorizations,
            warm_hits: s.warm_hits,
            warm_misses: s.warm_misses,
            kept,
            new_tunnels: o.new_tunnels,
            max_loss_bits: o.max_loss.map(f64::to_bits),
        });
        o.triggered
    };
    for window in schedule.warmup() {
        record(&ctl, &window);
    }
    let cycle = schedule.cycle_len();
    let done = |i: usize, triggered: usize| match workload {
        Workload::TwanSteady => i == 2 * cycle,
        Workload::Waxman2Cut => i == 2,
        Workload::B4Telemetry => triggered >= 3 && i.is_multiple_of(cycle),
    };
    let (mut i, mut triggered) = (0, 0);
    while !done(i, triggered) {
        if schedule.clears_cache_before(i) {
            ctl.cache.borrow_mut().clear();
        }
        triggered += record(&ctl, &schedule.window(i)) as usize;
        i += 1;
    }
    records
}

fn selfcheck(seed: u64, workloads: &[Workload]) -> bool {
    let mut ok = true;
    for &w in workloads {
        let a = det_run(w, seed, false);
        let b = det_run(w, seed, true);
        let same = a == b;
        ok &= same;
        let pivots: usize = a.iter().map(|r| r.pivots).sum();
        let triggered = a.iter().filter(|r| r.triggered).count();
        println!(
            "{}: seed {seed}: {} replays ({triggered} triggered, {pivots} pivots) {}",
            w.name(),
            a.len(),
            if same {
                "identical untraced vs traced"
            } else {
                "DIFFER"
            }
        );
        if !same {
            for (k, (x, y)) in a
                .iter()
                .zip(&b)
                .enumerate()
                .filter(|(_, (x, y))| x != y)
                .take(3)
            {
                println!("  replay {k}: {x:?} vs {y:?}");
            }
        }
    }
    ok
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload twan-steady|waxman-2cut|b4-telemetry \
                 --seed N --seconds S --trace 0|1\n       perfbench --selfcheck --seed N [--workload NAME]"
            );
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        return if selfcheck(args.seed, &workloads) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let workload = args.workload.expect("checked by parse_args");
    let (metrics, totals) = run(workload, &args, process_start);
    println!(
        "{}: fail_ratio {} ({} of {} replays attempted)",
        workload.name(),
        ratio(totals.failed as f64, totals.replays as f64),
        totals.failed,
        totals.replays
    );
    for x in &metrics {
        println!("{}: {} = {} {}", workload.name(), x.name, x.value, x.unit);
    }
    let correct = totals.failed == 0 && metrics.iter().all(|x| x.value.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .filter(|x| x.value.is_finite())
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        totals.replays,
        totals.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
