//! The training workloads: back-to-back sweep sessions on the 16b adder.
//!
//! Each session builds an `Experiment` (two scalarization weights, run one
//! after the other, each by the serial runner or by asynchronous actors
//! feeding a learner), trains it, and checks its merged front. Sessions
//! repeat until the run's measuring time is spent; per-session figures are
//! reported as medians. Every observer event is stamped with the wall
//! clock, the process's CPU clock and the raising thread's CPU clock (see
//! [`crate::clock`] for why the timed figures are CPU time). A session's
//! quality timeline comes from the `DesignFound` events: the merged
//! front's hypervolume ratio against the classical structures is replayed
//! after the session, and the first event at which it reaches the target
//! fixes `cpu_s_to_quality` and `evals_to_quality` (backend evaluations,
//! i.e. cache misses, counted by a wrapper around the workload's backend).

use crate::hv::Reference;
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::{lane, Trace};
use crate::{mix, Metric, Outcome};
use prefix_graph::PrefixGraph;
use prefixrl_core::agent::AgentConfig;
use prefixrl_core::env::EnvConfig;
use prefixrl_core::evaluator::ObjectivePoint;
use prefixrl_core::experiment::{CallbackObserver, Event, Experiment, Weights};
use prefixrl_core::qnet::{PrefixQNet, QNetConfig};
use prefixrl_core::task::{
    Adder, AnalyticalBackend, CircuitTask, ObjectiveBackend, SynthesisBackend,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Adder width of both training workloads.
pub const WIDTH: u16 = 16;
/// The two scalarization weights of every session.
pub const WEIGHTS: [f64; 2] = [0.25, 0.75];
/// Random operand pairs each front design's netlist must add correctly.
const SIM_OPERANDS: usize = 32;
/// Set-ups timed before each session, besides the session's own, so that
/// `setup_s` is a median over enough samples spread over the run. Set-up
/// takes well under a millisecond (analytical) or tens of milliseconds
/// (synthesis), and its median over set-ups made back to back read, for
/// synthesis, either about 22 or about 35 ms from run to run.
const SETUP_REPS: usize = 3;

/// One training workload's fixed shape.
#[derive(Clone, Copy, Debug)]
pub struct TrainSpec {
    /// Workload name.
    pub name: &'static str,
    /// Score with the synthesis backend (else analytical).
    pub synthesis: bool,
    /// Agents of a quality session trained at once over the shared
    /// evaluation service (1 runs the weights one after the other).
    pub eval_threads: usize,
    /// Actor threads per agent of the throughput sessions, which run the
    /// panel again through the asynchronous runner (actors feeding one
    /// learner thread, greedy forwards fused by the inference broker). 0:
    /// no throughput sessions; the quality sessions give every figure.
    pub async_actors: usize,
    /// Environment steps per gradient step of the serial runner (the
    /// asynchronous learner trains whenever experience arrives).
    pub train_every: u64,
    /// Environment steps per agent per session.
    pub steps: u64,
    /// Merged-front hypervolume ratio a session must reach.
    pub target: f64,
    /// Training seeds of one panel.
    pub seeds: &'static [u64],
    /// Seconds one panel takes on a two-vCPU Xeon host: a run makes
    /// `--seconds / panel_s` whole panels (at least one), so the work a
    /// run does follows from its arguments, never from the host's speed.
    pub panel_s: f64,
}

/// `train-analytical`: scoring is almost free, so the Q-network
/// dominates; one agent thread with a gradient step per environment step
/// (after the replay warm-up). The serial runner is bit-identical, so
/// every count repeats exactly and only time moves.
pub const ANALYTICAL: TrainSpec = TrainSpec {
    name: "train-analytical",
    synthesis: false,
    eval_threads: 1,
    async_actors: 0,
    train_every: 1,
    steps: 300,
    target: 1.04,
    seeds: &[11, 12, 13],
    // A panel takes about 18 s; at 17 a 35 s run makes two, and its
    // figures average the host's speed over twice as long.
    panel_s: 17.0,
};

/// `train-synthesis`: synthesis in the loop, so evaluation takes the
/// largest share of the time. Each panel runs twice:
/// * quality sessions — both agents at once through the serial runner
///   over the shared cache and evaluation service, one gradient step per
///   16 environment steps; they give `cpu_s_to_quality`,
///   `evals_to_quality` and `hv_ratio`;
/// * throughput sessions — the same seeds through the asynchronous runner
///   (the paper's decoupled actors and learner): two actor threads per
///   agent whose greedy forwards the inference broker fuses, and a learner
///   thread training on whatever experience has arrived; they give every
///   other figure and the per-layer ones.
///
/// The split is forced by noise: experience reaches the asynchronous
/// learner in a different order on every run, and over a panel of six
/// seeds the median time to hv_ratio 1.17 spread 9% and then 24% (IQR
/// over median, ten runs each), where the serial panel spread 12% to 20%
/// over four such sets.
pub const SYNTHESIS: TrainSpec = TrainSpec {
    name: "train-synthesis",
    synthesis: true,
    eval_threads: 2,
    async_actors: 2,
    train_every: 16,
    steps: 1000,
    target: 1.16,
    seeds: &[21, 22, 23],
    panel_s: 36.0,
};

/// The workload's backend: synthesis at the sweep's median weight (as the
/// CLI and the serve daemon bind it) or the analytical model.
fn backend_of(spec: &TrainSpec) -> Arc<dyn ObjectiveBackend> {
    if spec.synthesis {
        Arc::new(SynthesisBackend::new(
            netlist::Library::nangate45(),
            synth::sweep::SweepConfig::fast(),
            WEIGHTS[WEIGHTS.len() / 2],
        ))
    } else {
        Arc::new(AnalyticalBackend)
    }
}

/// Counts (and, when tracing, times) every backend evaluation; the
/// backend id passes through so cache keys are unchanged.
struct TimedBackend {
    inner: Arc<dyn ObjectiveBackend>,
    calls: AtomicU64,
    trace: Arc<Trace>,
}

impl ObjectiveBackend for TimedBackend {
    fn backend_id(&self) -> &'static str {
        self.inner.backend_id()
    }

    fn score(&self, task: &dyn CircuitTask, graph: &PrefixGraph) -> ObjectivePoint {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.trace
            .time("eval.score", None, || self.inner.score(task, graph))
    }

    fn annotate(&self, task: &dyn CircuitTask, graph: &PrefixGraph) -> Option<f64> {
        self.inner.annotate(task, graph)
    }
}

/// What the observer saw, in arrival order.
#[derive(Clone, Copy)]
enum Seen {
    /// An environment step, with its index.
    Step(u64),
    Grad,
    Other,
    /// A new design: its point, backend evaluations so far, and the step
    /// index it was found at.
    Design(ObjectivePoint, u64, u64),
}

/// One observer event.
#[derive(Clone, Copy)]
struct Logged {
    at: Instant,
    /// CPU seconds of the thread that raised the event.
    thread_cpu_s: f64,
    /// CPU seconds of the whole process.
    process_cpu_s: f64,
    run: usize,
    lane: u64,
    seen: Seen,
}

/// Observer events in arrival order.
type EventLog = Vec<Logged>;

/// Per-session results.
struct Session {
    setup_s: f64,
    wall_s: f64,
    /// The process's peak RSS over the session, in MiB (the high-water
    /// mark is reset before it). Over a whole run of train-analytical the
    /// peak read either 23.0 or 24.9 MB from run to run, as a late
    /// session's thread did or did not get a malloc arena of its own; the
    /// median over sessions does not follow one such session.
    peak_rss_mb: f64,
    /// Process CPU seconds the session used.
    cpu_s: f64,
    steps: u64,
    grad_steps: u64,
    designs: usize,
    front_size: usize,
    hv_ratio: f64,
    /// `(process CPU seconds, evaluations)` when the target was first
    /// reached.
    quality: Option<(f64, u64)>,
    reference: String,
    /// CPU time of an acting thread between its consecutive steps.
    step_cpu_us: Vec<f64>,
    cache: prefixrl_core::experiment::CacheStats,
    checks_failed: Vec<String>,
}

/// Runs one training workload for about `seconds` of measured session
/// time.
pub fn run(spec: &TrainSpec, seed: u64, seconds: f64, trace: &Arc<Trace>) -> Outcome {
    let task: Arc<dyn CircuitTask> = Arc::new(Adder);
    // With throughput sessions, only they are traced.
    let quiet = Arc::new(Trace::new(false, String::new()));
    let quality_trace = if spec.async_actors > 1 { &quiet } else { trace };
    let mut setups: Vec<f64> = Vec::new();
    let time_set_ups = |setups: &mut Vec<f64>| {
        for _ in 0..SETUP_REPS {
            setups.push(set_up(spec, &task, spec.seeds[0], quality_trace, 1).setup_s);
        }
    };
    let mut quality: Vec<Session> = Vec::new();
    let mut throughput: Vec<Session> = Vec::new();
    let panels = ((seconds / spec.panel_s) as usize).max(1);
    for _ in 0..panels {
        if spec.async_actors > 1 {
            for &training_seed in spec.seeds {
                time_set_ups(&mut setups);
                let check_seed = mix(seed, (quality.len() + throughput.len()) as u64);
                let s = session(
                    spec,
                    &task,
                    training_seed,
                    check_seed,
                    trace,
                    spec.async_actors,
                );
                log_session("throughput", training_seed, &s);
                throughput.push(s);
            }
        }
        for &training_seed in spec.seeds {
            time_set_ups(&mut setups);
            let check_seed = mix(seed, (quality.len() + throughput.len()) as u64);
            let s = session(spec, &task, training_seed, check_seed, quality_trace, 1);
            log_session("quality", training_seed, &s);
            quality.push(s);
        }
    }
    setups.extend(quality.iter().chain(&throughput).map(|s| s.setup_s));
    summarize(spec, &quality, &throughput, &setups, trace)
}

fn log_session(kind: &str, training_seed: u64, s: &Session) {
    eprintln!(
        "  {kind} session (training seed {training_seed}): {:.2}s wall, {:.2}s CPU, {} steps, hv_ratio {:.4}, peak RSS {:.1} MB, quality {}",
        s.wall_s,
        s.cpu_s,
        s.steps,
        s.hv_ratio,
        s.peak_rss_mb,
        s.quality
            .map_or("not reached".to_string(), |(t, e)| format!("at {t:.2} CPU s / {e} evals"))
    );
}

/// A session, built and ready to run.
struct SetUp {
    /// The workload's backend, unwrapped (for output checks).
    plain: Arc<dyn ObjectiveBackend>,
    reference: Reference,
    backend: Arc<TimedBackend>,
    experiment: Experiment,
    setup_s: f64,
}

/// Set-up: reference scoring, experiment build, Q-network init. `actors`
/// 1 selects the serial runner, more the asynchronous one.
fn set_up(
    spec: &TrainSpec,
    task: &Arc<dyn CircuitTask>,
    seed: u64,
    trace: &Arc<Trace>,
    actors: usize,
) -> SetUp {
    let t_setup = Instant::now();
    let plain = backend_of(spec);
    let reference = Reference::score(task.as_ref(), plain.as_ref(), WIDTH);
    let backend = Arc::new(TimedBackend {
        inner: Arc::clone(&plain),
        calls: AtomicU64::new(0),
        trace: Arc::clone(trace),
    });
    let mut base = AgentConfig::small(WIDTH, 0.5, spec.steps);
    base.train_every = spec.train_every;
    if spec.synthesis {
        base.env = EnvConfig::synthesis(WIDTH);
    }
    let qnet = base.qnet.clone();
    let experiment = Experiment::builder()
        .n(WIDTH)
        .weights(Weights::list(WEIGHTS.to_vec()))
        .steps(spec.steps)
        .seed(seed)
        .base_config(base)
        .task(Arc::clone(task))
        .backend(Arc::clone(&backend) as Arc<dyn ObjectiveBackend>)
        .eval_threads(if actors > 1 { 1 } else { spec.eval_threads })
        .actors(actors)
        .batched_inference(true)
        .build();
    std::hint::black_box(PrefixQNet::new(&qnet));
    SetUp {
        plain,
        reference,
        backend,
        experiment,
        setup_s: t_setup.elapsed().as_secs_f64(),
    }
}

fn session(
    spec: &TrainSpec,
    task: &Arc<dyn CircuitTask>,
    seed: u64,
    check_seed: u64,
    trace: &Arc<Trace>,
    actors: usize,
) -> Session {
    crate::host::reset_peak_rss();
    let SetUp {
        plain,
        reference,
        backend,
        experiment,
        setup_s,
    } = set_up(spec, task, seed, trace, actors);

    // Each event with the lane of the thread that raised it: the acting
    // thread, or the learner's under the asynchronous runner.
    let log: Arc<Mutex<EventLog>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    let calls = Arc::clone(&backend);
    let mut observer = CallbackObserver::new(move |run, event: &Event| {
        let at = Instant::now();
        let thread_cpu_s = crate::clock::thread_cpu_s();
        let process_cpu_s = crate::clock::process_cpu_s();
        let seen = match event {
            Event::Step { step, .. } => Seen::Step(*step),
            Event::GradStep { .. } => Seen::Grad,
            Event::DesignFound { point, step, .. } => {
                Seen::Design(*point, calls.calls.load(Ordering::Relaxed), *step)
            }
            _ => Seen::Other,
        };
        sink.lock().expect("event log poisoned").push(Logged {
            at,
            thread_cpu_s,
            process_cpu_s,
            run,
            lane: lane(),
            seen,
        });
    });
    let session_span = trace.reserve();
    let cpu0 = crate::clock::process_cpu_s();
    let t0 = Instant::now();
    let result = experiment.run(&mut observer);
    let t1 = Instant::now();
    let cpu_s = crate::clock::process_cpu_s() - cpu0;
    let peak_rss_mb = crate::host::peak_rss_mb();
    trace.record_as(session_span, "agent.session", None, t0, t1);
    let wall_s = (t1 - t0).as_secs_f64();
    let log = std::mem::take(&mut *log.lock().expect("event log poisoned"));

    let mut checks_failed = Vec::new();
    let result = match result {
        Ok(r) => r,
        Err(e) => {
            checks_failed.push(format!("session failed: {e}"));
            return Session {
                setup_s,
                wall_s,
                peak_rss_mb,
                cpu_s,
                steps: 0,
                grad_steps: 0,
                designs: 0,
                front_size: 0,
                hv_ratio: 0.0,
                quality: None,
                step_cpu_us: Vec::new(),
                reference: reference.describe(),
                cache: experiment.cache_stats(),
                checks_failed,
            };
        }
    };

    // Quality timeline: replay the discoveries in arrival order.
    let mut found: Vec<ObjectivePoint> = Vec::new();
    let mut quality = None;
    for e in &log {
        if let Seen::Design(point, evals, _) = e.seen {
            found.push(point);
            if quality.is_none() && reference.ratio(&found) >= spec.target {
                quality = Some((e.process_cpu_s - cpu0, evals));
            }
        }
    }

    let front = result.merged_front();
    let front_points: Vec<ObjectivePoint> = front.points();
    let hv_ratio = reference.ratio(&front_points);
    checks_failed.extend(check_front(
        task.as_ref(),
        plain.as_ref(),
        &front,
        check_seed,
    ));

    let step_cpu_us = layer_spans(&log, session_span, trace);
    Session {
        setup_s,
        wall_s,
        peak_rss_mb,
        cpu_s,
        steps: result.total_steps(),
        grad_steps: result.records.iter().map(|r| r.losses.len() as u64).sum(),
        designs: result.records.iter().map(|r| r.designs.len()).sum(),
        front_size: front.len(),
        hv_ratio,
        quality,
        step_cpu_us,
        reference: reference.describe(),
        cache: experiment.cache_stats(),
        checks_failed,
    }
}

/// Turns the event log into layer spans (when tracing) and returns the
/// CPU time each acting thread spent between its consecutive environment
/// steps.
///
/// Events are followed per run and lane (thread). An acting lane's step spans
/// from its previous step's last event to its `Step`: features, mask, Q
/// forward (through the broker under the asynchronous runner),
/// legalization and evaluation. A gradient step on an acting lane (serial
/// runner) spans from the step before it; on the asynchronous learner's
/// lane, which never steps, from its previous gradient step.
fn layer_spans(log: &EventLog, session: u64, trace: &Trace) -> Vec<f64> {
    #[derive(Clone, Copy, Default)]
    struct LaneState {
        last_step: Option<(Instant, u64)>,
        last_step_cpu_s: Option<f64>,
        last_grad: Option<Instant>,
        // End of the previous step's work: its last event.
        step_done: Option<Instant>,
    }
    let mut lanes: std::collections::HashMap<(usize, u64), LaneState> =
        std::collections::HashMap::new();
    let mut intervals = Vec::new();
    for &Logged {
        at,
        thread_cpu_s,
        run,
        lane,
        seen,
        ..
    } in log
    {
        let st = lanes.entry((run, lane)).or_default();
        let current = st.last_step.map(|(_, step)| step);
        match seen {
            Seen::Step(step) => {
                if let Some(prev) = st.last_step_cpu_s {
                    intervals.push((thread_cpu_s - prev) * 1e6);
                }
                st.last_step_cpu_s = Some(thread_cpu_s);
                if let Some(from) = st.step_done {
                    trace.record_on(
                        lane,
                        trace.reserve(),
                        "agent.act_env",
                        Some(session),
                        from,
                        at,
                    );
                }
                st.last_step = Some((at, step));
                st.step_done = Some(at);
            }
            Seen::Grad => {
                let from = st.last_step.map(|(t, _)| t).or(st.last_grad);
                if let Some(from) = from {
                    trace.record_on(
                        lane,
                        trace.reserve(),
                        "rl.grad_step",
                        Some(session),
                        from,
                        at,
                    );
                }
                st.last_grad = Some(at);
                st.step_done = Some(at);
            }
            // A design found at the current step index (after an episode
            // reset) still belongs to it; one found at the next index is
            // part of the next step's action.
            Seen::Design(_, _, step) if Some(step) == current => st.step_done = Some(at),
            Seen::Design(..) => {}
            Seen::Other => st.step_done = Some(at),
        }
    }
    intervals
}

/// Output checks on a session's merged front: legality, a fresh backend
/// call scoring to the recorded point, and the emitted netlist adding
/// seeded random operands correctly.
fn check_front(
    task: &dyn CircuitTask,
    backend: &dyn ObjectiveBackend,
    front: &prefixrl_core::pareto::ParetoFront<PrefixGraph>,
    seed: u64,
) -> Vec<String> {
    let mut failed = Vec::new();
    let mask = (1u64 << WIDTH) - 1;
    for (i, (point, graph)) in front.iter().enumerate() {
        if let Err(e) = graph.verify_legal() {
            failed.push(format!("front design {i} is illegal: {e:?}"));
            continue;
        }
        let fresh = backend.score(task, graph);
        if fresh != *point {
            failed.push(format!(
                "front design {i} rescored to {fresh:?}, recorded {point:?}"
            ));
        }
        let netlist = task.emit_netlist(graph);
        for k in 0..SIM_OPERANDS as u64 {
            let a = mix(seed, 2 * k + 1_000 * (i as u64 + 1)) & mask;
            let b = mix(seed, 2 * k + 1 + 1_000 * (i as u64 + 1)) & mask;
            let sum = netlist::sim::add(&netlist, a, b);
            if sum != u128::from(a) + u128::from(b) {
                failed.push(format!("front design {i}: {a} + {b} simulated to {sum}"));
                break;
            }
        }
    }
    failed
}

/// FLOPs of one gradient step of the small Q-network at `batch` samples:
/// multiply-adds of every convolution counted twice, the two inference
/// forwards (online and target over next states) plus one training
/// forward and a backward counted as two forwards (input and weight
/// gradients). Batch norm and activations are left out.
fn flops_per_grad_step(cfg: &QNetConfig, batch: usize) -> f64 {
    let pixels = f64::from(cfg.n) * f64::from(cfg.n);
    let c = cfg.channels as f64;
    let conv = |cin: f64, cout: f64, k: f64| 2.0 * pixels * cin * cout * k * k;
    let forward = conv(4.0, c, 3.0)
        + cfg.blocks as f64 * 2.0 * conv(c, c, 5.0)
        + conv(c, c, 1.0)
        + conv(c, 4.0, 1.0);
    batch as f64 * 5.0 * forward
}

/// Quality figures come from the quality sessions, every other figure
/// from the throughput sessions (the quality sessions when there are
/// none).
fn summarize(
    spec: &TrainSpec,
    quality: &[Session],
    throughput: &[Session],
    setups: &[f64],
    trace: &Trace,
) -> Outcome {
    let sessions = if throughput.is_empty() {
        quality
    } else {
        throughput
    };
    let attempted = (quality.len() + throughput.len()) as u64;
    let batch = AgentConfig::small(WIDTH, 0.5, 1).dqn.batch_size;
    let checks_failed: Vec<String> = quality
        .iter()
        .chain(throughput)
        .flat_map(|s| s.checks_failed.clone())
        .collect();
    // Quality figures are means over the panel's sessions: each session
    // follows its own training seed, so their times to quality differ by
    // more than run-to-run noise, and a median would jump from one seed's
    // figure to another's as the noise reorders them.
    // A quality session that never reaches the target fails; its quality
    // figures are censored at the session's end (its CPU time and every
    // evaluation it made) rather than left out.
    let reached: Vec<(f64, f64)> = quality
        .iter()
        .map(|s| {
            s.quality
                .map_or((s.cpu_s, s.cache.misses as f64), |(t, e)| (t, e as f64))
        })
        .collect();
    let unreached = quality.iter().filter(|s| s.quality.is_none()).count();
    let failed = quality
        .iter()
        .filter(|s| s.quality.is_none() || !s.checks_failed.is_empty())
        .count() as u64
        + throughput
            .iter()
            .filter(|s| !s.checks_failed.is_empty())
            .count() as u64;
    let wall: f64 = sessions.iter().map(|s| s.wall_s).sum();
    let cpu: f64 = sessions.iter().map(|s| s.cpu_s).sum();
    let steps: u64 = sessions.iter().map(|s| s.steps).sum();
    let intervals = sorted(
        &sessions
            .iter()
            .flat_map(|s| s.step_cpu_us.iter().copied())
            .collect::<Vec<_>>(),
    );
    let e2e = vec![
        Metric::new("setup_s", "s", median(setups)),
        Metric::new(
            "peak_rss_mb",
            "MB",
            median(&sessions.iter().map(|s| s.peak_rss_mb).collect::<Vec<_>>()),
        ),
        Metric::new(
            "success_rate",
            "ratio",
            (attempted - failed) as f64 / attempted as f64,
        ),
        Metric::new("steps_per_cpu_s", "1/s", steps as f64 / cpu),
        Metric::new(
            "cpu_s_to_quality",
            "s",
            mean(&reached.iter().map(|q| q.0).collect::<Vec<_>>()),
        ),
        Metric::new(
            "evals_to_quality",
            "count",
            mean(&reached.iter().map(|q| q.1).collect::<Vec<_>>()),
        ),
        Metric::new(
            "hv_ratio",
            "ratio",
            median(&quality.iter().map(|s| s.hv_ratio).collect::<Vec<_>>()),
        ),
        Metric::new("latency_p50_us", "us", percentile(&intervals, 0.5)),
    ];

    let mut layers = Vec::new();
    if trace.enabled() {
        trace.adopt("agent.act_env", "eval.score");
        let grad = sorted(&trace.durations_us("rl.grad_step"));
        let act = sorted(&trace.durations_us("agent.act_env"));
        let act_self = sorted(&trace.self_times_us("agent.act_env"));
        let score = sorted(&trace.durations_us("eval.score"));
        let grad_steps: u64 = sessions.iter().map(|s| s.grad_steps).sum();
        let (hits, misses, unique) = sessions.iter().fold((0u64, 0u64, 0usize), |acc, s| {
            (
                acc.0 + s.cache.hits,
                acc.1 + s.cache.misses,
                acc.2 + s.cache.unique_states,
            )
        });
        let flops = flops_per_grad_step(&QNetConfig::small(WIDTH), batch);
        let grad_p50 = percentile(&grad, 0.5);
        layers = vec![
            Metric::new("agent.steps_per_wall_s", "1/s", steps as f64 / wall),
            Metric::new("agent.step_p90_us", "us", percentile(&intervals, 0.9)),
            Metric::new("rl.grad_step_p50_us", "us", grad_p50),
            Metric::new("rl.grad_step_p99_us", "us", percentile(&grad, 0.99)),
            Metric::new(
                "nn.gflops",
                "GFLOP/s",
                if grad_p50 > 0.0 {
                    flops / (grad_p50 * 1e3)
                } else {
                    0.0
                },
            ),
            Metric::new("agent.act_env_p50_us", "us", percentile(&act, 0.5)),
            Metric::new("agent.act_self_p50_us", "us", percentile(&act_self, 0.5)),
            Metric::new("eval.score_p50_us", "us", percentile(&score, 0.5)),
            Metric::new("eval.score_p99_us", "us", percentile(&score, 0.99)),
            Metric::new("eval.calls", "count", score.len() as f64),
            Metric::new("cache.hits", "count", hits as f64),
            Metric::new("cache.misses", "count", misses as f64),
            Metric::new(
                "cache.hit_rate",
                "ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            ),
            Metric::new("cache.unique_states", "count", unique as f64),
            Metric::new("rl.grad_steps", "count", grad_steps as f64),
            Metric::new(
                "rl.grad_per_env_step",
                "ratio",
                grad_steps as f64 / steps.max(1) as f64,
            ),
            Metric::new("env.steps", "count", steps as f64),
            Metric::new(
                "agent.designs",
                "count",
                sessions.iter().map(|s| s.designs).sum::<usize>() as f64,
            ),
            Metric::new(
                "agent.front_size",
                "count",
                median(
                    &sessions
                        .iter()
                        .map(|s| s.front_size as f64)
                        .collect::<Vec<_>>(),
                ),
            ),
        ];
    }

    let mut notes = vec![
        format!(
            "workload {}: adder n={WIDTH}, {} backend, weights {WEIGHTS:?}, {} steps/agent, training seeds {:?}; quality sessions: serial runner, {} agent(s) at once, train_every {}{}",
            spec.name,
            if spec.synthesis { "synthesis" } else { "analytical" },
            spec.steps,
            spec.seeds,
            spec.eval_threads,
            spec.train_every,
            if spec.async_actors > 1 {
                format!(
                    "; throughput sessions: asynchronous runner, {} actors per agent, inference broker on, agents one after the other",
                    spec.async_actors
                )
            } else {
                String::new()
            }
        ),
        format!(
            "sessions {attempted} ({} quality, {} throughput), throughput measured over {cpu:.2} CPU s ({wall:.2} s wall, {:.1} steps per wall second); quality target hv_ratio >= {} over the six classical structures, not reached in {unreached}; setup_s is the median of {} set-ups",
            quality.len(),
            throughput.len(),
            steps as f64 / wall,
            spec.target,
            setups.len()
        ),
        format!(
            "flops per grad step (small Q-net, batch {batch}): {:.1} MFLOP",
            flops_per_grad_step(&QNetConfig::small(WIDTH), batch) / 1e6
        ),
        format!(
            "CPU time between an acting thread's steps: {} samples, p90 {:.1} us, p99 {:.1} us",
            intervals.len(),
            percentile(&intervals, 0.9),
            percentile(&intervals, 0.99)
        ),
        sessions.first().map_or_else(String::new, |s| s.reference.clone()),
        "headline names: cpu_s_to_quality (process CPU seconds from session start), evals_to_quality and hv_ratio from the quality sessions; steps_per_cpu_s (steps per process CPU second) and latency_p50_us (CPU time between an acting thread's steps) from the throughput sessions; the query_* and queryable_* headlines belong to serve-mixed".to_string(),
    ];
    notes.push(format!(
        "error_rate {:.4}",
        failed as f64 / attempted as f64
    ));
    Outcome {
        attempted,
        failed,
        checks_failed,
        e2e,
        layers,
        notes,
    }
}
