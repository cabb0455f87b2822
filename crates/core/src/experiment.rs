//! Experiment sessions: builder-configured weight sweeps, run events, and
//! checkpoint/resume (DESIGN.md §10).
//!
//! The paper's headline result is an *ensemble*: 15 Double-DQN agents over
//! `w_area ∈ [0.10, 0.99]` whose visited designs merge into the Fig. 4
//! fronts, all sharing the Section IV-D evaluation cache. This module is
//! the session layer that makes that shape first-class:
//!
//! - [`Experiment`] — built with [`Experiment::builder`], owns one
//!   [`Evaluator`] scoring its own `.task(..)` with its `.backend(..)`
//!   through one memo store (private, or shared via
//!   [`ExperimentBuilder::eval_cache`]) and a [`Run`] handle per
//!   scalarization weight; running it fans agents out over
//!   `eval_threads` concurrent runs so the cross-agent cache sharing
//!   actually happens in-process. Every agent trains through the one
//!   [`TrainLoop`], with `actors` environments per round.
//! - [`RunObserver`] + [`Event`] — a streaming event interface replacing
//!   the return-everything-at-the-end result blob: per-step, per-gradient,
//!   per-episode, per-design, and per-checkpoint events, with
//!   callback-backed ([`CallbackObserver`]) and channel-backed
//!   ([`ChannelObserver`]) sinks.
//! - [`ExperimentResult`] — per-agent [`RunRecord`]s, the merged Pareto
//!   front, and shared-cache statistics, with one JSON schema
//!   (`prefixrl.experiment.v1`) for single runs and sweeps alike.
//!
//! Checkpointing (see [`crate::checkpoint`]) makes a killed sweep restart
//! where it stopped and produce bit-identical designs and losses to an
//! uninterrupted run.

use crate::agent::{AgentConfig, TrainLoop};
use crate::cache::EvalCache;
use crate::checkpoint::{sweep_json, Checkpoint, RunState, SweepCheckpoint};
use crate::evaluator::{Evaluator, ObjectivePoint};
use crate::pareto::ParetoFront;
use crate::task::{Adder, AnalyticalBackend, CircuitTask, ObjectiveBackend};
use parking_lot::Mutex;
use prefix_graph::PrefixGraph;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------- events

/// One observation from a training run, streamed as it happens.
#[derive(Clone, Copy, Debug)]
pub enum Event {
    /// An environment step was taken.
    Step {
        /// Environment step index (0-based).
        step: u64,
        /// Exploration ε used for this step.
        epsilon: f64,
        /// Scaled reward vector `[r_area, r_delay]`.
        reward: [f32; 2],
    },
    /// A gradient step completed.
    GradStep {
        /// Gradient step count (1-based).
        grad_step: u64,
        /// Scalar Huber loss.
        loss: f32,
    },
    /// An episode hit its truncation budget.
    EpisodeEnd {
        /// Completed-episode count (1-based).
        episode: usize,
        /// Scalarized return of the episode.
        scalarized_return: f64,
    },
    /// A design not seen before by this run entered the pool.
    DesignFound {
        /// Environment step at which it was found.
        step: u64,
        /// Its evaluated objectives.
        point: ObjectivePoint,
        /// Prefix-graph node count.
        size: usize,
        /// Prefix-graph depth.
        depth: usize,
    },
    /// A checkpoint of the run was captured.
    CheckpointSaved {
        /// Environment step the checkpoint covers.
        step: u64,
    },
}

/// A sink for [`Event`]s, tagged with the emitting run's id.
///
/// Observers must be `Send`: a sweep calls one observer from several agent
/// threads (serialized behind a lock).
pub trait RunObserver: Send {
    /// Receives one event from run `run`.
    fn on_event(&mut self, run: usize, event: &Event);
}

/// Discards every event (the default sink).
pub struct NullObserver;

impl RunObserver for NullObserver {
    fn on_event(&mut self, _run: usize, _event: &Event) {}
}

/// Calls a closure on every event.
pub struct CallbackObserver<F: FnMut(usize, &Event) + Send> {
    f: F,
}

impl<F: FnMut(usize, &Event) + Send> CallbackObserver<F> {
    /// Wraps `f` as an observer.
    pub fn new(f: F) -> Self {
        CallbackObserver { f }
    }
}

impl<F: FnMut(usize, &Event) + Send> RunObserver for CallbackObserver<F> {
    fn on_event(&mut self, run: usize, event: &Event) {
        (self.f)(run, event)
    }
}

/// Streams `(run, event)` pairs over a bounded channel, decoupling event
/// consumers (logging, UIs) from the training threads.
pub struct ChannelObserver {
    tx: crossbeam::channel::Sender<(usize, Event)>,
}

impl ChannelObserver {
    /// Creates an observer and the receiving end of its channel.
    ///
    /// Events are dropped (not blocked on) once the receiver disconnects;
    /// while connected, a full channel applies back-pressure.
    pub fn bounded(capacity: usize) -> (Self, crossbeam::channel::Receiver<(usize, Event)>) {
        let (tx, rx) = crossbeam::channel::bounded(capacity);
        (ChannelObserver { tx }, rx)
    }
}

impl RunObserver for ChannelObserver {
    fn on_event(&mut self, run: usize, event: &Event) {
        // A disconnected receiver means nobody is listening; training
        // continues unobserved rather than failing.
        let _ = self.tx.send((run, *event));
    }
}

// ---------------------------------------------------------------- cancel

/// A cooperative cancel handle threaded through every run of an
/// [`Experiment`].
///
/// Cloning is cheap (clones share one flag) and any clone may cancel.
/// Runs poll the token at every round boundary, so
/// [`CancelToken::cancel`] stops a run within one round: it saves a
/// checkpoint exactly as `halt_at` does, and the run stays resumable.
/// Cancellation is permanent.
#[derive(Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; observed within one round.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

// --------------------------------------------------------------- weights

/// The scalarization-weight schedule of a sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Weights(Vec<f64>);

impl Weights {
    /// A single weight.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ w ≤ 1`.
    pub fn single(w: f64) -> Self {
        Self::list(vec![w])
    }

    /// An explicit weight list.
    ///
    /// Duplicate weights are **rejected loudly**, not silently deduped: a
    /// duplicate would spawn a redundant agent that burns a full sweep
    /// slot and double-counts its designs in the merged front, and a
    /// silent dedupe would shift the run-id ↔ weight mapping under the
    /// caller. Callers generating weights programmatically should use
    /// [`Weights::try_list`] (same validation, recoverable error) or
    /// [`Weights::linspace`] (which collapses float-equal points itself).
    ///
    /// # Panics
    ///
    /// Panics if the list is empty, any weight lies outside `[0, 1]`, or
    /// the list contains duplicates.
    pub fn list(ws: Vec<f64>) -> Self {
        Self::try_list(ws).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The non-panicking form of [`Weights::list`], for callers validating
    /// untrusted input (the serve protocol, CLI flags).
    ///
    /// # Errors
    ///
    /// Fails if the list is empty, any weight lies outside `[0, 1]`, or
    /// the list contains (float-equal) duplicates.
    pub fn try_list(ws: Vec<f64>) -> Result<Self, String> {
        if ws.is_empty() {
            return Err("need at least one weight".to_string());
        }
        for &w in &ws {
            if !(0.0..=1.0).contains(&w) {
                return Err(format!("weight {w} outside [0, 1]"));
            }
        }
        for i in 0..ws.len() {
            for j in (i + 1)..ws.len() {
                if ws[i] == ws[j] {
                    return Err(format!(
                        "duplicate weight {} (positions {i} and {j}): each agent \
                         must train a distinct scalarization — a duplicate burns \
                         a sweep slot and double-counts in the merged front",
                        ws[i]
                    ));
                }
            }
        }
        Ok(Weights(ws))
    }

    /// `k` weights linearly spaced over `[lo, hi]` (the paper uses
    /// `linspace(0.10, 0.99, 15)`); `k = 1` yields `lo`.
    ///
    /// Float-equal neighbours are collapsed, so a degenerate range
    /// (`linspace(0.5, 0.5 + 1e-18, 3)`, where every point rounds to the
    /// same f64) yields *fewer than `k`* weights rather than duplicate
    /// agents; the endpoints themselves are always preserved.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `lo > hi`, or either endpoint is outside
    /// `[0, 1]`.
    pub fn linspace(lo: f64, hi: f64, k: usize) -> Self {
        assert!(k > 0, "need at least one weight");
        assert!(lo <= hi, "empty weight range");
        if k == 1 {
            return Self::single(lo);
        }
        let mut ws: Vec<f64> = (0..k)
            .map(|i| lo + (hi - lo) * i as f64 / (k - 1) as f64)
            .collect();
        // The sequence is nondecreasing, so consecutive dedup removes all
        // float-equal points a tiny range collapses onto.
        ws.dedup();
        Self::list(ws)
    }

    /// The weights, in run order.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Number of weights (= number of agents).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the schedule is empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

// --------------------------------------------------------------- records

/// What one agent's run produced, tagged with its sweep position.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunRecord {
    /// Run id (index into the sweep's weight list).
    pub run: usize,
    /// The agent's scalarization weight `w_area`.
    pub w_area: f64,
    /// Environment steps executed.
    pub steps: u64,
    /// Every distinct design visited, with evaluated objectives.
    pub designs: Vec<(PrefixGraph, ObjectivePoint)>,
    /// Per-gradient-step losses.
    pub losses: Vec<f32>,
    /// Scalarized episode returns.
    pub episode_returns: Vec<f64>,
}

impl RunRecord {
    /// The Pareto front over this run's designs.
    pub fn front(&self) -> ParetoFront<PrefixGraph> {
        self.designs.iter().map(|(g, p)| (*p, g.clone())).collect()
    }

    /// The design minimizing the scalarized objective
    /// `w_area·c_area·area + (1 − w_area)·c_delay·delay`.
    pub fn best_scalarized(
        &self,
        w_area: f64,
        c_area: f64,
        c_delay: f64,
    ) -> Option<&(PrefixGraph, ObjectivePoint)> {
        self.designs.iter().min_by(|a, b| {
            let cost =
                |p: &ObjectivePoint| w_area * c_area * p.area + (1.0 - w_area) * c_delay * p.delay;
            cost(&a.1).total_cmp(&cost(&b.1))
        })
    }

    /// A partial record reflecting a mid-run checkpoint (used when a sweep
    /// halts before this run finishes).
    pub fn from_checkpoint(run: usize, ckpt: &Checkpoint) -> Self {
        RunRecord {
            run,
            w_area: ckpt.cfg.dqn.weight[0] as f64,
            steps: ckpt.step,
            designs: ckpt.designs.clone(),
            losses: ckpt.losses.clone(),
            episode_returns: ckpt.episode_returns.clone(),
        }
    }
}

// ------------------------------------------------------------ experiment

/// A handle to one configured agent of an experiment.
#[derive(Clone)]
pub struct Run {
    /// Run id (index into the weight list).
    pub id: usize,
    /// This agent's scalarization weight.
    pub w_area: f64,
    /// The full agent configuration the runner executes.
    pub cfg: AgentConfig,
}

/// Builder for [`Experiment`] — see the module docs for the full shape.
pub struct ExperimentBuilder {
    n: u16,
    weights: Weights,
    steps: u64,
    seed: u64,
    base: Option<AgentConfig>,
    task: Arc<dyn CircuitTask>,
    backend: Arc<dyn ObjectiveBackend>,
    store: Option<Arc<EvalCache>>,
    eval_threads: usize,
    actors: Option<usize>,
    checkpoint_every: Option<u64>,
    checkpoint_path: Option<PathBuf>,
    halt_at: Option<u64>,
    // `None` unless a caller attached a token: no one else could cancel it.
    cancel: Option<CancelToken>,
}

impl ExperimentBuilder {
    fn new() -> Self {
        ExperimentBuilder {
            n: 8,
            weights: Weights::single(0.5),
            steps: 2000,
            seed: 0,
            base: None,
            task: Arc::new(Adder),
            backend: Arc::new(AnalyticalBackend),
            store: None,
            eval_threads: 4,
            actors: None,
            checkpoint_every: None,
            checkpoint_path: None,
            halt_at: None,
            cancel: None,
        }
    }

    /// Input width `N`.
    pub fn n(mut self, n: u16) -> Self {
        self.n = n;
        self
    }

    /// The circuit task to optimize (defaults to the [`Adder`]). Built-in
    /// tasks come from [`crate::task::by_name`]; custom implementations of
    /// [`CircuitTask`] plug in the same way.
    pub fn task(mut self, task: Arc<dyn CircuitTask>) -> Self {
        self.task = task;
        self
    }

    /// The objective backend scoring the task (defaults to
    /// [`AnalyticalBackend`]).
    pub fn backend(mut self, backend: Arc<dyn ObjectiveBackend>) -> Self {
        self.backend = backend;
        self
    }

    /// The scalarization weights — one agent per weight.
    pub fn weights(mut self, weights: Weights) -> Self {
        self.weights = weights;
        self
    }

    /// Environment steps per agent.
    pub fn steps(mut self, steps: u64) -> Self {
        self.steps = steps;
        self
    }

    /// Master seed; run `i` trains with `seed + i`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// A full [`AgentConfig`] template. Overrides `n`/`steps`; the per-run
    /// weight and seed are still applied on top.
    pub fn base_config(mut self, cfg: AgentConfig) -> Self {
        self.base = Some(cfg);
        self
    }

    /// How many agents of the sweep run concurrently.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn eval_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one eval thread");
        self.eval_threads = threads;
        self
    }

    /// Actors *per agent* ([`AgentConfig::actors`]): environments stepped
    /// at once, each on its own thread, per round. Overrides the base
    /// config's count; defaults to it (1 for the built-in configs). Runs
    /// are deterministic and checkpointable at every count.
    ///
    /// # Panics
    ///
    /// Panics if `actors == 0`.
    pub fn actors(mut self, actors: usize) -> Self {
        assert!(actors > 0, "need at least one actor");
        self.actors = Some(actors);
        self
    }

    /// Inert: the argument is ignored. Every run picks its greedy actions
    /// with one batched forward per round. The method stays, with its
    /// signature, only because the benchmark harness under `perfbench/`
    /// calls `.batched_inference(true)`.
    #[doc(hidden)]
    pub fn batched_inference(self, _on: bool) -> Self {
        self
    }

    /// Capture a checkpoint every `steps` environment steps per agent.
    pub fn checkpoint_every(mut self, steps: u64) -> Self {
        self.checkpoint_every = Some(steps);
        self
    }

    /// Persist sweep checkpoints to this file (atomically rewritten).
    pub fn checkpoint_path(mut self, path: PathBuf) -> Self {
        self.checkpoint_path = Some(path);
        self
    }

    /// Halt every agent at this step after saving a checkpoint — for
    /// interrupt/resume testing and CI smoke runs.
    pub fn halt_at(mut self, step: u64) -> Self {
        self.halt_at = Some(step);
        self
    }

    /// Attach a [`CancelToken`] the caller keeps a clone of: cancelling it
    /// stops every run within one round (runs checkpoint first, so the
    /// sweep stays resumable). This is how a resident server cancels a job
    /// without tearing the process down.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Evaluate through an externally owned (typically shared) store
    /// instead of a private one. This is the multi-job server path: every
    /// concurrent experiment's task/backend evaluator memoizes through one
    /// store, the discriminant prefix keeps
    /// their entries apart, and [`Experiment::cache_stats`] reports the
    /// *shared* store's aggregate counters.
    pub fn eval_cache(mut self, store: Arc<EvalCache>) -> Self {
        self.store = Some(store);
        self
    }

    /// Assembles the experiment: per-run agent configs plus one evaluator
    /// of the configured task/backend pair over the store.
    pub fn build(self) -> Experiment {
        let store = self.store.unwrap_or_default();
        let evaluator = Arc::new(Evaluator::with_store(
            Arc::clone(&self.task),
            Arc::clone(&self.backend),
            store,
        ));
        let runs = self
            .weights
            .values()
            .iter()
            .enumerate()
            .map(|(id, &w)| {
                let mut cfg = match &self.base {
                    Some(base) => base.clone(),
                    None => AgentConfig::small(self.n, w as f32, self.steps),
                };
                cfg.env.task = self.task.task_id().to_string();
                cfg.dqn.weight = [w as f32, 1.0 - w as f32];
                cfg.seed = self.seed.wrapping_add(id as u64);
                cfg.qnet.seed = cfg.qnet.seed.wrapping_add(id as u64);
                if let Some(actors) = self.actors {
                    cfg.actors = actors;
                }
                Run { id, w_area: w, cfg }
            })
            .collect();
        Experiment {
            runs,
            evaluator,
            parallelism: self.eval_threads,
            checkpoint_every: self.checkpoint_every,
            checkpoint_path: self.checkpoint_path,
            halt_at: self.halt_at,
            cancel: self.cancel,
        }
    }
}

/// Aggregate statistics of an evaluation store — the one encoding behind
/// [`Experiment::cache_stats`], the report's `cache` block and the serve
/// `ping` reply.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total hits (including coalesced in-flight waits).
    pub hits: u64,
    /// Total misses (inner evaluations).
    pub misses: u64,
    /// Entries evicted by capacity bounds.
    pub evictions: u64,
    /// Hit rate in `[0, 1]`.
    pub hit_rate: f64,
    /// Distinct states currently cached.
    pub unique_states: usize,
}

impl CacheStats {
    /// The current statistics of `store`.
    pub fn of(store: &EvalCache) -> CacheStats {
        CacheStats {
            hits: store.hits(),
            misses: store.misses(),
            evictions: store.evictions(),
            hit_rate: store.hit_rate(),
            unique_states: store.unique_states(),
        }
    }
}

/// A configured multi-agent training session over one shared evaluation
/// cache.
pub struct Experiment {
    runs: Vec<Run>,
    /// The one evaluator of the session: the task/backend pair over the
    /// (private or shared) store. It is also where the experiment's task
    /// and backend live.
    evaluator: Arc<Evaluator>,
    parallelism: usize,
    checkpoint_every: Option<u64>,
    checkpoint_path: Option<PathBuf>,
    halt_at: Option<u64>,
    cancel: Option<CancelToken>,
}

impl Experiment {
    /// Starts a builder with analytical defaults (one agent, `w = 0.5`).
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::new()
    }

    /// The configured run handles, in weight order.
    pub fn runs(&self) -> &[Run] {
        &self.runs
    }

    /// The circuit task this experiment optimizes.
    pub fn task(&self) -> &Arc<dyn CircuitTask> {
        self.evaluator.task()
    }

    /// The objective backend scoring the task.
    pub fn backend(&self) -> &Arc<dyn ObjectiveBackend> {
        self.evaluator.backend()
    }

    /// Current statistics of the shared cache.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::of(self.evaluator.store())
    }

    /// Runs every agent, `eval_threads` at a time.
    ///
    /// # Errors
    ///
    /// Fails if any run fails (first error wins; remaining runs finish).
    pub fn run(&self, observer: &mut dyn RunObserver) -> Result<ExperimentResult, String> {
        self.run_from(
            SweepCheckpoint::fresh(self.task().task_id(), self.runs.len()),
            observer,
        )
    }

    /// Runs with [`NullObserver`].
    ///
    /// # Errors
    ///
    /// See [`Experiment::run`].
    pub fn run_quiet(&self) -> Result<ExperimentResult, String> {
        self.run(&mut NullObserver)
    }

    /// Resumes from a sweep checkpoint: finished agents are restored from
    /// their records, in-progress agents continue bit-identically from
    /// their checkpoints, pending agents start fresh.
    ///
    /// # Errors
    ///
    /// Fails if the checkpoint does not match this experiment's shape, was
    /// recorded for a different circuit task — continuing an adder sweep
    /// as a prefix-OR sweep would silently mix oracles — or holds a run
    /// trained with another actor count.
    pub fn resume(
        &self,
        sweep: SweepCheckpoint,
        observer: &mut dyn RunObserver,
    ) -> Result<ExperimentResult, String> {
        if sweep.task != self.task().task_id() {
            return Err(format!(
                "cannot resume: checkpoint was recorded for task `{}`, experiment \
                 is configured for task `{}`",
                sweep.task,
                self.task().task_id()
            ));
        }
        if sweep.runs.len() != self.runs.len() {
            return Err(format!(
                "checkpoint has {} runs, experiment has {}",
                sweep.runs.len(),
                self.runs.len()
            ));
        }
        for (run, state) in self.runs.iter().zip(&sweep.runs) {
            if let RunState::InProgress(c) = state {
                if c.cfg.actors != run.cfg.actors {
                    return Err(format!(
                        "run {}: checkpoint actor mismatch: trained with {} actors, \
                         experiment has {} actors",
                        run.id, c.cfg.actors, run.cfg.actors
                    ));
                }
            }
            let ckpt_w = match state {
                RunState::InProgress(c) => c.cfg.dqn.weight[0] as f64,
                RunState::Done(r) => r.w_area,
                RunState::Pending => continue,
            };
            if (ckpt_w - run.w_area).abs() > 1e-6 {
                return Err(format!(
                    "run {} weight mismatch: checkpoint {ckpt_w}, experiment {}",
                    run.id, run.w_area
                ));
            }
        }
        self.run_from(sweep, observer)
    }

    fn run_from(
        &self,
        sweep: SweepCheckpoint,
        observer: &mut dyn RunObserver,
    ) -> Result<ExperimentResult, String> {
        let t0 = std::time::Instant::now();
        let slots: Vec<Mutex<Option<RunState>>> = sweep
            .runs
            .into_iter()
            .map(|s| Mutex::new(Some(s)))
            .collect();
        let shared_observer = Mutex::new(observer);
        let persist_lock = Mutex::new(());
        let next = AtomicUsize::new(0);
        let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let workers = self.parallelism.min(self.runs.len()).max(1);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= self.runs.len() {
                        break;
                    }
                    if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                        // Don't start queued runs after a cancel; their
                        // slots stay Pending (resumable from scratch).
                        continue;
                    }
                    let resume = match slots[i].lock().as_ref().expect("slot populated") {
                        RunState::Done(_) => continue,
                        RunState::Pending => None,
                        RunState::InProgress(ckpt) => Some((**ckpt).clone()),
                    };
                    let mut local_observer = LockedObserver {
                        inner: &shared_observer,
                    };
                    let mut keep = |ckpt: Checkpoint| {
                        *slots[i].lock() = Some(RunState::InProgress(Box::new(ckpt)));
                        self.persist(&slots, &persist_lock);
                    };
                    match self.train_run(i, resume, &mut local_observer, &mut keep) {
                        Ok(Some(record)) => {
                            *slots[i].lock() = Some(RunState::Done(record));
                            self.persist(&slots, &persist_lock);
                        }
                        // Halted or cancelled: its checkpoint is already
                        // in the slot.
                        Ok(None) => {}
                        Err(e) => errors.lock().push(format!("run {i}: {e}")),
                    }
                });
            }
        });
        {
            let errors = errors.lock();
            if !errors.is_empty() {
                return Err(errors.join("; "));
            }
        }
        let mut records = Vec::with_capacity(self.runs.len());
        let mut completed = true;
        for (i, slot) in slots.iter().enumerate() {
            match slot.lock().take().expect("slot populated") {
                RunState::Done(mut record) => {
                    // Report the configured f64 weight, not its f32
                    // round-trip through DqnConfig.
                    record.w_area = self.runs[i].w_area;
                    records.push(record);
                }
                RunState::InProgress(ckpt) => {
                    completed = false;
                    let mut record = RunRecord::from_checkpoint(i, &ckpt);
                    record.w_area = self.runs[i].w_area;
                    records.push(record);
                }
                RunState::Pending => {
                    completed = false;
                    records.push(RunRecord {
                        run: i,
                        w_area: self.runs[i].w_area,
                        steps: 0,
                        designs: Vec::new(),
                        losses: Vec::new(),
                        episode_returns: Vec::new(),
                    });
                }
            }
        }
        // Off-reward-path annotations (e.g. switching power) for the
        // merged frontier, when the backend produces them. Indexed in the
        // frontier's (deterministic, strictly-delay-increasing) iteration
        // order, which `merged_front()` reproduces from the same records.
        let merged: ParetoFront<PrefixGraph> = records
            .iter()
            .flat_map(|r| r.designs.iter().map(|(g, p)| (*p, g.clone())))
            .collect();
        let frontier_power: Option<Vec<f64>> = merged
            .iter()
            .map(|(_, g)| self.evaluator.annotate(g))
            .collect();
        Ok(ExperimentResult {
            n: self.runs[0].cfg.env.n,
            task: self.task().task_id().to_string(),
            backend: self.backend().backend_id().to_string(),
            evaluator: self.evaluator.name().to_string(),
            steps_per_agent: self.runs[0].cfg.total_steps,
            actors_per_agent: self.runs[0].cfg.actors,
            completed,
            records,
            frontier_power,
            cache: self.cache_stats(),
            elapsed_sec: t0.elapsed().as_secs_f64(),
        })
    }

    /// Trains run `id` — from `resume` when given — until its budget is
    /// spent, `halt_at` is reached or the cancel token fires. Every
    /// checkpoint it captures goes to `keep`: periodic ones at the first
    /// round boundary past each multiple of `checkpoint_every`, and one at
    /// the boundary where a halt or cancel stops it. Returns the record of
    /// a finished run, `None` for a stopped one.
    fn train_run(
        &self,
        id: usize,
        resume: Option<Checkpoint>,
        observer: &mut dyn RunObserver,
        keep: &mut dyn FnMut(Checkpoint),
    ) -> Result<Option<RunRecord>, String> {
        let evaluator = Arc::clone(&self.evaluator);
        let mut lp = match resume {
            Some(ckpt) => TrainLoop::from_checkpoint(&ckpt, evaluator)?,
            None => TrainLoop::new(&self.runs[id].cfg, evaluator),
        };
        let mut saved_at = lp.step();
        let mut stopped = false;
        lp.run_rounds(id, observer, |lp, observer| {
            let mut save = |lp: &mut TrainLoop| {
                keep(lp.checkpoint());
                observer.on_event(id, &Event::CheckpointSaved { step: lp.step() });
            };
            let due = self
                .checkpoint_every
                .is_some_and(|every| every > 0 && lp.step() / every > saved_at / every);
            if due {
                save(lp);
            }
            saved_at = lp.step();
            // Cancel stops and checkpoints exactly like a halt, so the run
            // resumes.
            stopped = self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
                || self.halt_at.is_some_and(|h| lp.step() >= h);
            if stopped {
                save(lp);
            }
            !stopped
        });
        Ok((!stopped).then(|| lp.into_parts(id).1))
    }

    /// Atomically rewrites the sweep checkpoint file, if one is configured.
    ///
    /// Each slot is serialized to a value tree under its own lock (no
    /// intermediate `RunState` clone — in-progress slots embed both
    /// networks, the Adam moments and the replay, so cloning them would
    /// double a persist's memory); the file is still one atomic
    /// whole-sweep snapshot, with each slot internally consistent.
    fn persist(&self, slots: &[Mutex<Option<RunState>>], persist_lock: &Mutex<()>) {
        let Some(path) = &self.checkpoint_path else {
            return;
        };
        let _guard = persist_lock.lock();
        let runs = slots
            .iter()
            .map(|s| s.lock().as_ref().expect("slot populated").to_value())
            .collect();
        let json = sweep_json(Checkpoint::FORMAT_VERSION, self.task().task_id(), runs);
        if let Err(e) = crate::checkpoint::write_atomic(path, &json) {
            // Checkpointing is best-effort durability; training goes on.
            eprintln!("warning: sweep checkpoint write failed: {e}");
        }
    }
}

/// Per-thread adapter funnelling events into the sweep's shared observer.
struct LockedObserver<'a, 'b> {
    inner: &'a Mutex<&'b mut dyn RunObserver>,
}

impl RunObserver for LockedObserver<'_, '_> {
    fn on_event(&mut self, run: usize, event: &Event) {
        self.inner.lock().on_event(run, event);
    }
}

// ------------------------------------------------------------------ result

/// Everything a (possibly multi-agent) experiment produced.
pub struct ExperimentResult {
    /// Input width.
    pub n: u16,
    /// The circuit task's stable id (e.g. `"adder"`).
    pub task: String,
    /// The objective backend's stable id (e.g. `"analytical"`).
    pub backend: String,
    /// Inner evaluator name (`task/backend`).
    pub evaluator: String,
    /// Step budget per agent.
    pub steps_per_agent: u64,
    /// Actors per agent.
    pub actors_per_agent: usize,
    /// Whether every agent exhausted its budget (false after `halt_at`).
    pub completed: bool,
    /// Per-agent records, in run order.
    pub records: Vec<RunRecord>,
    /// Off-reward-path switching-power annotations (µW) for the merged
    /// frontier, in [`ExperimentResult::merged_front`] iteration order;
    /// `None` when the backend does not annotate.
    pub frontier_power: Option<Vec<f64>>,
    /// Shared-cache statistics at completion.
    pub cache: CacheStats,
    /// Wall-clock seconds of this process's portion of the work.
    pub elapsed_sec: f64,
}

impl ExperimentResult {
    /// Total environment steps across all agents.
    pub fn total_steps(&self) -> u64 {
        self.records.iter().map(|r| r.steps).sum()
    }

    /// The combined Pareto front over every agent's design pool — the
    /// paper's Fig. 4 construction.
    pub fn merged_front(&self) -> ParetoFront<PrefixGraph> {
        self.records
            .iter()
            .flat_map(|r| r.designs.iter().map(|(g, p)| (*p, g.clone())))
            .collect()
    }

    /// The `prefixrl.experiment.v1` JSON report shared by `prefixrl train`
    /// and `prefixrl sweep` (schema documented in DESIGN.md §10). With
    /// `include_graphs`, merged-frontier entries embed the full prefix
    /// graphs for downstream tooling.
    pub fn to_json(&self, include_graphs: bool) -> serde_json::Value {
        let frontier_json = |front: &ParetoFront<PrefixGraph>, graphs: bool| {
            serde_json::Value::Array(
                front
                    .iter()
                    .map(|(p, g)| {
                        let mut entry = serde_json::json!({
                            "area": p.area,
                            "delay": p.delay,
                            "size": g.size(),
                            "depth": g.depth(),
                        });
                        if graphs {
                            if let serde_json::Value::Object(entries) = &mut entry {
                                entries.push(("graph".to_string(), serde::Serialize::to_value(g)));
                            }
                        }
                        entry
                    })
                    .collect(),
            )
        };
        // The merged frontier, with per-point power annotations when the
        // backend produced them (index-aligned with merged_front order).
        let mut merged_json = frontier_json(&self.merged_front(), include_graphs);
        if let (serde_json::Value::Array(items), Some(powers)) =
            (&mut merged_json, &self.frontier_power)
        {
            // Annotations are index-aligned with merged_front order; a
            // length mismatch would mean silent mispairing, so drop them
            // entirely rather than zip-truncate.
            if items.len() == powers.len() {
                for (item, p) in items.iter_mut().zip(powers) {
                    if let serde_json::Value::Object(entries) = item {
                        entries.push(("power_uw".to_string(), serde::Serialize::to_value(p)));
                    }
                }
            }
        }
        let mut cache_json = self.cache.to_value();
        if let serde_json::Value::Object(entries) = &mut cache_json {
            let requests = self.cache.hits + self.cache.misses;
            entries.push(("requests".to_string(), requests.to_value()));
        }
        let agents: Vec<serde_json::Value> = self
            .records
            .iter()
            .map(|r| {
                let front = r.front();
                // The evaluations an uninterrupted run makes: each actor's
                // environment scores its first start state when built and
                // again at its first reset, then one per step and one per
                // episode reset.
                let eval_requests =
                    r.steps + r.episode_returns.len() as u64 + 2 * self.actors_per_agent as u64;
                serde_json::json!({
                    "run": r.run,
                    "w_area": r.w_area,
                    "steps": r.steps,
                    "designs": r.designs.len(),
                    "grad_steps": r.losses.len(),
                    "episodes": r.episode_returns.len(),
                    "eval_requests": eval_requests,
                    "frontier_size": front.len(),
                    "frontier": frontier_json(&front, false),
                })
            })
            .collect();
        serde_json::json!({
            "schema": "prefixrl.experiment.v1",
            "n": self.n,
            "task": self.task,
            "backend": self.backend,
            "evaluator": self.evaluator,
            "agents_count": self.records.len(),
            "steps_per_agent": self.steps_per_agent,
            "total_steps": self.total_steps(),
            "completed": self.completed,
            "elapsed_sec": self.elapsed_sec,
            "steps_per_sec": self.total_steps() as f64 / self.elapsed_sec.max(1e-9),
            "agents": serde_json::Value::Array(agents),
            "merged_frontier": merged_json,
            "cache": cache_json,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task;

    #[test]
    fn weights_linspace_matches_paper_shape() {
        let w = Weights::linspace(0.10, 0.99, 15);
        assert_eq!(w.len(), 15);
        assert!((w.values()[0] - 0.10).abs() < 1e-12);
        assert!((w.values()[14] - 0.99).abs() < 1e-12);
        for pair in w.values().windows(2) {
            assert!(pair[0] < pair[1], "weights must increase");
        }
        assert_eq!(Weights::linspace(0.3, 0.9, 1).values(), &[0.3]);
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn weights_reject_out_of_range() {
        Weights::list(vec![0.5, 1.5]);
    }

    #[test]
    fn builder_configures_runs() {
        let exp = Experiment::builder()
            .n(8)
            .weights(Weights::linspace(0.2, 0.8, 3))
            .steps(100)
            .seed(7)
            .eval_threads(2)
            .build();
        let runs = exp.runs();
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].cfg.seed, 7);
        assert_eq!(runs[2].cfg.seed, 9);
        assert!((runs[1].w_area - 0.5).abs() < 1e-12);
        assert_eq!(runs[1].cfg.dqn.weight[0], 0.5);
        assert_eq!(runs[0].cfg.total_steps, 100);
    }

    #[test]
    fn experiment_shares_cache_across_agents() {
        let exp = Experiment::builder()
            .n(8)
            .weights(Weights::linspace(0.2, 0.8, 3))
            .base_config(AgentConfig::tiny(8, 0.5))
            .eval_threads(3)
            .build();
        let result = exp.run_quiet().unwrap();
        assert!(result.completed);
        assert_eq!(result.records.len(), 3);
        // All agents reset into the same two start states, so the shared
        // cache must coalesce them.
        assert!(result.cache.hits > 0, "agents never shared the cache");
        assert!(!result.merged_front().is_empty());
    }

    #[test]
    fn channel_observer_streams_events() {
        let exp = Experiment::builder()
            .n(8)
            .weights(Weights::single(0.5))
            .base_config(AgentConfig::tiny(8, 0.5))
            .build();
        let (mut obs, rx) = ChannelObserver::bounded(100_000);
        let result = exp.run(&mut obs).unwrap();
        drop(obs);
        let events: Vec<(usize, Event)> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        let steps = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::Step { .. }))
            .count() as u64;
        assert_eq!(steps, result.records[0].steps);
        let grads = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::GradStep { .. }))
            .count();
        assert_eq!(grads, result.records[0].losses.len());
        let designs = events
            .iter()
            .filter(|(_, e)| matches!(e, Event::DesignFound { .. }))
            .count();
        assert_eq!(designs, result.records[0].designs.len());
    }

    #[test]
    fn result_json_has_schema_fields() {
        let exp = Experiment::builder()
            .n(8)
            .weights(Weights::linspace(0.3, 0.7, 2))
            .base_config(AgentConfig::tiny(8, 0.5))
            .build();
        let result = exp.run_quiet().unwrap();
        let json = result.to_json(false);
        assert_eq!(
            json.get("schema").unwrap(),
            &serde_json::Value::String("prefixrl.experiment.v1".into())
        );
        assert_eq!(json.get("agents").unwrap().as_array().unwrap().len(), 2);
        assert!(json.get("merged_frontier").is_some());
        assert!(json.get("cache").unwrap().get("hit_rate").is_some());
        assert_eq!(
            json.get("task").unwrap(),
            &serde_json::Value::String("adder".into())
        );
        assert_eq!(
            json.get("backend").unwrap(),
            &serde_json::Value::String("analytical".into())
        );
    }

    #[test]
    fn builder_task_threads_into_run_configs() {
        let exp = Experiment::builder()
            .n(8)
            .task(task::by_name("incrementer").unwrap())
            .weights(Weights::linspace(0.3, 0.7, 2))
            .base_config(AgentConfig::tiny(8, 0.5))
            .build();
        assert_eq!(exp.task().task_id(), "incrementer");
        for run in exp.runs() {
            assert_eq!(run.cfg.env.task, "incrementer");
        }
    }

    #[test]
    fn weights_reject_duplicates_loudly() {
        let err = Weights::try_list(vec![0.3, 0.5, 0.3]).unwrap_err();
        assert!(err.contains("duplicate weight"), "{err}");
        assert!(err.contains("positions 0 and 2"), "{err}");
    }

    #[test]
    #[should_panic(expected = "duplicate weight")]
    fn weights_list_panics_on_duplicates() {
        Weights::list(vec![0.5, 0.5]);
    }

    #[test]
    fn linspace_collapses_float_equal_points_at_tiny_ranges() {
        // Every point of this range rounds to the same f64: one agent.
        let w = Weights::linspace(0.5, 0.5 + 1e-18, 3);
        assert_eq!(w.values(), &[0.5]);
        // A representable range keeps its distinct points, endpoints
        // included.
        let w = Weights::linspace(0.5, 0.5 + 1e-12, 3);
        assert!(w.len() >= 2, "endpoints must survive");
        assert_eq!(w.values()[0], 0.5);
        assert_eq!(*w.values().last().unwrap(), 0.5 + 1e-12);
        for pair in w.values().windows(2) {
            assert!(pair[0] < pair[1], "collapse must leave strict order");
        }
    }

    #[test]
    fn cancel_token_stops_serial_run_within_one_tick() {
        let experiment = |actors: usize, cancel: CancelToken| {
            Experiment::builder()
                .base_config(AgentConfig::tiny(8, 0.5))
                .actors(actors)
                .cancel_token(cancel)
                .build()
        };
        // (actors, step whose event fires the cancel, steps that must have
        // run); `None` cancels before the first round. Three actors run
        // rounds 0..3, 3..6, …: step 50 lies in round 48..51.
        for (actors, cancel_at, expected) in [
            (1, Some(50u64), 51u64),
            (1, None, 0),
            (3, Some(50), 51),
            (3, None, 0),
        ] {
            let token = CancelToken::new();
            if cancel_at.is_none() {
                token.cancel();
            }
            let canceller = token.clone();
            let mut obs = CallbackObserver::new(move |_, e| {
                if let Event::Step { step, .. } = e {
                    if cancel_at.is_some_and(|at| *step >= at) {
                        canceller.cancel();
                    }
                }
            });
            // Driven through `train_run` directly: an `Experiment` never
            // starts a run whose token is already cancelled.
            let mut saved = None;
            let record = experiment(actors, token)
                .train_run(0, None, &mut obs, &mut |ckpt| saved = Some(ckpt))
                .unwrap();
            assert!(record.is_none(), "a cancelled run is not finished");
            // The run polls before every round, so a token that fired
            // during step 50 stops it at the end of that round.
            let ckpt = saved.expect("a cancelled run saves a checkpoint");
            assert_eq!(
                ckpt.step, expected,
                "{actors} actor(s): cancel not within one round"
            );
            assert_eq!(ckpt.actors.len(), actors);
            assert!(!ckpt.designs.is_empty());
            // The stop saved a checkpoint the run resumes from to the end.
            let resumed = experiment(actors, CancelToken::new())
                .train_run(0, Some(ckpt), &mut NullObserver, &mut |_| {})
                .unwrap()
                .expect("the resumed run finishes");
            assert_eq!(resumed.steps, 300);
        }
    }

    /// The report's `eval_requests` is the exact number of evaluations an
    /// agent makes: a one-agent run over a private cache sends that many
    /// requests to it, at one actor and at three.
    #[test]
    fn eval_requests_match_cache_requests() {
        for actors in [1, 3] {
            let result = Experiment::builder()
                .base_config(AgentConfig::tiny(8, 0.5))
                .actors(actors)
                .build()
                .run_quiet()
                .unwrap();
            let json = result.to_json(false);
            let agent = &json.get("agents").unwrap().as_array().unwrap()[0];
            let requests = json.get("cache").unwrap().get("requests").unwrap();
            assert_eq!(
                agent.get("eval_requests").unwrap(),
                requests,
                "{actors} actor(s)"
            );
            assert_eq!(result.actors_per_agent, actors);
        }
    }

    #[test]
    fn resume_rejects_actor_count_mismatch() {
        let dir = std::env::temp_dir().join(format!("prefixrl-actors-{}", std::process::id()));
        let path = dir.join("halted.sweep.json");
        let experiment = |actors: usize| {
            Experiment::builder()
                .base_config(AgentConfig::tiny(8, 0.5))
                .actors(actors)
                .checkpoint_path(path.clone())
                .halt_at(30)
        };
        assert!(!experiment(2).build().run_quiet().unwrap().completed);
        let sweep = SweepCheckpoint::load(&path).unwrap();
        let err = match experiment(1).build().resume(sweep, &mut NullObserver) {
            Err(e) => e,
            Ok(_) => panic!("actor-count mismatch must be rejected"),
        };
        assert!(
            err.contains("2 actors") && err.contains("1 actors"),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cancelled_sweep_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("prefixrl-cancel-{}", std::process::id()));
        let path = dir.join("cancelled.sweep.json");
        let base = AgentConfig::tiny(8, 0.5);
        let reference = Experiment::builder()
            .n(8)
            .weights(Weights::single(0.5))
            .base_config(base.clone())
            .build()
            .run_quiet()
            .unwrap();
        let token = CancelToken::new();
        let canceller = token.clone();
        let halted = Experiment::builder()
            .n(8)
            .weights(Weights::single(0.5))
            .base_config(base.clone())
            .cancel_token(token)
            .checkpoint_path(path.clone())
            .build()
            .run(&mut CallbackObserver::new(move |_, e| {
                if let Event::Step { step, .. } = e {
                    if *step >= 80 {
                        canceller.cancel();
                    }
                }
            }))
            .unwrap();
        assert!(!halted.completed);
        let sweep = SweepCheckpoint::load(&path).unwrap();
        let resumed = Experiment::builder()
            .n(8)
            .weights(Weights::single(0.5))
            .base_config(base)
            .build()
            .resume(sweep, &mut NullObserver)
            .unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.records[0].losses, reference.records[0].losses);
        assert_eq!(
            resumed.records[0].designs.len(),
            reference.records[0].designs.len()
        );
        for ((ga, pa), (gb, pb)) in resumed.records[0]
            .designs
            .iter()
            .zip(&reference.records[0].designs)
        {
            assert_eq!(ga.canonical_key(), gb.canonical_key());
            assert_eq!(pa, pb);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn external_eval_cache_is_shared_across_experiments() {
        let store = Arc::new(EvalCache::default());
        let make = |task: Arc<dyn CircuitTask>| {
            Experiment::builder()
                .n(8)
                .task(task)
                .weights(Weights::single(0.5))
                .base_config(AgentConfig::tiny(8, 0.5))
                .eval_cache(Arc::clone(&store))
                .build()
        };
        let first = make(Arc::new(Adder)).run_quiet().unwrap();
        assert!(first.completed);
        let misses_after_first = store.misses();
        assert!(misses_after_first > 0);
        // A second, identical experiment over the same external store
        // replays the same deterministic states: the shared store must
        // serve it entirely from cache.
        let second = make(Arc::new(Adder)).run_quiet().unwrap();
        assert!(second.completed);
        assert_eq!(
            store.misses(),
            misses_after_first,
            "second run must be all hits through the shared store"
        );
        assert_eq!(second.cache.misses, store.misses());
        // A different task over the same store binds its own evaluator:
        // it shares states with the adder run (at least the start
        // states) but must miss on every one of them.
        let or = make(task::by_name("prefix-or").unwrap())
            .run_quiet()
            .unwrap();
        assert!(or.completed);
        assert_eq!(or.evaluator, "prefix-or/analytical");
        assert_eq!(or.task, "prefix-or");
        let adder_states: std::collections::HashSet<Vec<u64>> = first.records[0]
            .designs
            .iter()
            .map(|(g, _)| g.canonical_key())
            .collect();
        let or_states = &or.records[0].designs;
        assert!(
            or_states
                .iter()
                .any(|(g, _)| adder_states.contains(&g.canonical_key())),
            "the two runs must visit common states for the check to bite"
        );
        assert!(
            store.misses() - misses_after_first >= or_states.len() as u64,
            "prefix-or hit an adder entry: {} misses for {} distinct states",
            store.misses() - misses_after_first,
            or_states.len()
        );
        assert_eq!(or.cache.misses, store.misses());
    }

    #[test]
    fn resume_rejects_task_mismatch() {
        let exp = Experiment::builder()
            .n(8)
            .task(task::by_name("prefix-or").unwrap())
            .base_config(AgentConfig::tiny(8, 0.5))
            .build();
        let sweep = SweepCheckpoint::fresh("adder", 1);
        let err = match exp.resume(sweep, &mut NullObserver) {
            Err(e) => e,
            Ok(_) => panic!("task mismatch must be rejected"),
        };
        assert!(err.contains("task `adder`"), "{err}");
        assert!(err.contains("task `prefix-or`"), "{err}");
    }
}
