//! Job management for the resident optimization service: a bounded FIFO
//! queue of sweep jobs, worker threads running them as [`Experiment`]
//! sessions over one shared evaluation cache, per-job cancel tokens and
//! event tails, and a persisted queue (`jobs.json`) so a killed server
//! resumes where it stopped.

use crate::cluster::{ReplPeerStatus, Topology};
use crate::lock;
use crate::store::{key_of, FrontierStore};
use prefix_graph::PrefixGraph;
use prefixrl_core::agent::AgentConfig;
use prefixrl_core::cache::EvalCache;
use prefixrl_core::checkpoint::write_atomic;
use prefixrl_core::env::EnvConfig;
use prefixrl_core::evaluator::ObjectivePoint;
use prefixrl_core::experiment::{
    CacheStats, CallbackObserver, CancelToken, Event, Experiment, ExperimentResult, Weights,
};
use prefixrl_core::task::{self, CircuitTask, ObjectiveBackend};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration of a serve session (server socket + job manager).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Concurrent job worker threads.
    pub workers: usize,
    /// Maximum queued-or-running jobs before `submit` is refused.
    pub queue_capacity: usize,
    /// How many agents of one job run concurrently.
    pub eval_threads: usize,
    /// Events retained per job for `status` tails.
    pub event_tail: usize,
    /// Where `frontier.json` / `jobs.json` persist; `None` = ephemeral.
    pub state_dir: Option<PathBuf>,
    /// WAL records accumulated before the frontier store compacts
    /// (see [`crate::store::FrontierStore::open_with`]).
    pub compact_every: u64,
    /// Cluster membership: `None` runs the classic single-node daemon;
    /// `Some` makes this server shard `topology.shard_id` of an N-node
    /// cluster — it owns the keys hashing to its id, publishes their
    /// merges to replication subscribers, and follows its ring sources
    /// (see [`crate::cluster`] and DESIGN.md §16).
    pub cluster: Option<Topology>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 2,
            queue_capacity: 256,
            eval_threads: 2,
            event_tail: 64,
            state_dir: None,
            compact_every: crate::store::COMPACT_EVERY_DEFAULT,
            cluster: None,
        }
    }
}

/// What one submitted job asks for: a weight sweep over one
/// `(task, backend, width)` key.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobSpec {
    /// Circuit task id (see [`task::TASK_NAMES`]).
    pub task: String,
    /// Objective backend id (see [`task::BACKEND_NAMES`]).
    pub backend: String,
    /// Input width.
    pub n: u16,
    /// Scalarization weights, one agent each (validated like
    /// [`Weights::try_list`]: non-empty, in `[0, 1]`, no duplicates).
    pub weights: Vec<f64>,
    /// Environment steps per agent.
    pub steps: u64,
    /// Master seed.
    pub seed: u64,
}

/// Lifecycle of a job. `Queued → Running → Done` is the happy path;
/// `Cancelled` and `Failed` are terminal, and a graceful shutdown moves
/// `Running` jobs back to `Queued` for the next server instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Waiting in the FIFO queue.
    Queued,
    /// A worker is training its agents right now.
    Running,
    /// Finished; its pool is merged into the frontier store.
    Done,
    /// Stopped by a user cancel request.
    Cancelled,
    /// The run errored (message preserved).
    Failed(String),
}

impl JobPhase {
    /// The wire/persistence name of this phase.
    pub fn name(&self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done => "done",
            JobPhase::Cancelled => "cancelled",
            JobPhase::Failed(_) => "failed",
        }
    }

    fn from_name(name: &str, error: Option<&str>) -> Option<JobPhase> {
        Some(match name {
            "queued" => JobPhase::Queued,
            "running" => JobPhase::Running,
            "done" => JobPhase::Done,
            "cancelled" => JobPhase::Cancelled,
            "failed" => JobPhase::Failed(error.unwrap_or("unknown").to_string()),
            _ => return None,
        })
    }
}

/// The per-job hot-path counters and event tail, behind the job's *own*
/// lock: every training step of every agent reports here, so routing this
/// through the manager-wide state mutex would convoy all jobs' training
/// threads (and every status RPC) on one lock.
struct JobTelemetry {
    events_seen: u64,
    designs_found: u64,
    tail: VecDeque<serde_json::Value>,
    first_event_at: Option<Instant>,
}

struct Job {
    spec: JobSpec,
    phase: JobPhase,
    /// Every phase the job passed through, in order — so a poller that
    /// misses a short-lived state can still assert the full transition
    /// sequence.
    history: Vec<&'static str>,
    token: CancelToken,
    user_cancelled: bool,
    telemetry: Arc<Mutex<JobTelemetry>>,
    submitted_at: Instant,
    finished_at: Option<Instant>,
    /// Points the finished job added to its stored front.
    merged_new_points: Option<usize>,
}

impl Job {
    fn new(spec: JobSpec) -> Job {
        Job {
            spec,
            phase: JobPhase::Queued,
            history: vec!["queued"],
            token: CancelToken::new(),
            user_cancelled: false,
            telemetry: Arc::new(Mutex::new(JobTelemetry {
                events_seen: 0,
                designs_found: 0,
                tail: VecDeque::new(),
                first_event_at: None,
            })),
            submitted_at: Instant::now(),
            finished_at: None,
            merged_new_points: None,
        }
    }

    fn set_phase(&mut self, phase: JobPhase) {
        self.history.push(phase.name());
        self.phase = phase;
    }
}

struct ManagerState {
    jobs: BTreeMap<u64, Job>,
    queue: VecDeque<u64>,
    next_id: u64,
}

/// One `(task, backend)` binding: the task/backend pair a job trains on.
/// Each job's [`Experiment`] builds its own evaluator of this pair over
/// the server-wide store.
#[derive(Clone)]
struct Binding {
    task: Arc<dyn CircuitTask>,
    backend: Arc<dyn ObjectiveBackend>,
    synthesis_env: bool,
}

/// The server-wide evaluation stack: one shared [`EvalCache`] store every
/// job evaluates through (entries isolated by the task/backend
/// discriminant), with one lazily-created binding per `(task, backend)`
/// key so concurrent jobs on the same key score with the identical
/// backend. Synthesis bindings pick their curve point at the *first*
/// job's median weight and keep it — the same shared-evaluator caveat as
/// DESIGN.md §10, required for cache soundness.
struct SharedBindings {
    store: Arc<EvalCache>,
    bindings: Mutex<HashMap<(String, String), Binding>>,
}

impl SharedBindings {
    fn new() -> SharedBindings {
        SharedBindings {
            store: Arc::default(),
            bindings: Mutex::new(HashMap::new()),
        }
    }

    fn binding_for(
        &self,
        task_name: &str,
        backend_name: &str,
        median_w: f64,
    ) -> Result<Binding, String> {
        let mut bindings = lock(&self.bindings);
        if let Some(b) = bindings.get(&(task_name.to_string(), backend_name.to_string())) {
            return Ok(b.clone());
        }
        let task = task::by_name(task_name).ok_or_else(|| {
            format!(
                "unknown task `{task_name}` (expected one of: {})",
                task::TASK_NAMES.join("|")
            )
        })?;
        let (backend, synthesis_env) =
            task::backend_by_name(backend_name, netlist::Library::nangate45(), median_w)?;
        let binding = Binding {
            task,
            backend,
            synthesis_env,
        };
        bindings.insert(
            (task_name.to_string(), backend_name.to_string()),
            binding.clone(),
        );
        Ok(binding)
    }
}

/// The schema identifier of the persisted job queue.
pub const JOBS_SCHEMA: &str = "prefixrl.serve.jobs.v1";

/// Submit/status/cancel/list over a bounded job queue, executed by worker
/// threads over one shared evaluation stack and one frontier store.
pub struct JobManager {
    cfg: ServeConfig,
    stack: SharedBindings,
    store: Arc<FrontierStore>,
    state: Mutex<ManagerState>,
    work: Condvar,
    stop: AtomicBool,
    /// Per-source follower subscription state, reported by the `cluster`
    /// verb. Keyed by source shard id; empty outside cluster mode.
    repl_status: Mutex<BTreeMap<usize, ReplPeerStatus>>,
}

impl JobManager {
    /// Builds the manager: opens (or creates) the frontier store and
    /// reloads a persisted job queue, re-queuing jobs that were running
    /// when the previous server died.
    ///
    /// # Errors
    ///
    /// Fails on unreadable/corrupt state files or an invalid cluster
    /// topology.
    pub fn new(cfg: ServeConfig) -> Result<Arc<JobManager>, String> {
        if let Some(topology) = &cfg.cluster {
            topology.validate()?;
        }
        let store = match &cfg.state_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
                Arc::new(FrontierStore::open_with(
                    &dir.join("frontier.json"),
                    cfg.compact_every,
                )?)
            }
            None => Arc::new(FrontierStore::in_memory()),
        };
        let mut repl_status = BTreeMap::new();
        if let Some(topology) = &cfg.cluster {
            // Enabled before any worker or follower thread exists, so no
            // merge can race the hub's creation.
            store.enable_replication(topology.clone());
            for source in topology.replica_sources() {
                repl_status.insert(source, ReplPeerStatus::default());
            }
        }
        let mut state = ManagerState {
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            next_id: 1,
        };
        if let Some(dir) = &cfg.state_dir {
            load_jobs(&dir.join("jobs.json"), &mut state)?;
        }
        let manager = Arc::new(JobManager {
            stack: SharedBindings::new(),
            store,
            state: Mutex::new(state),
            work: Condvar::new(),
            stop: AtomicBool::new(false),
            repl_status: Mutex::new(repl_status),
            cfg,
        });
        manager.persist_jobs();
        Ok(manager)
    }

    /// The frontier store this manager merges into.
    pub fn store(&self) -> &Arc<FrontierStore> {
        &self.store
    }

    /// The configuration this manager was built with.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Updates one replication source's reported status.
    pub(crate) fn set_repl_status(&self, source: usize, f: impl FnOnce(&mut ReplPeerStatus)) {
        let mut status = lock(&self.repl_status);
        f(status.entry(source).or_default());
    }

    /// Follower subscription states as a JSON array, for the `cluster`
    /// verb (empty outside cluster mode or with zero replicas).
    pub fn repl_status_json(&self) -> serde_json::Value {
        let status = lock(&self.repl_status);
        serde_json::Value::Array(
            status
                .iter()
                .map(|(&source, s)| s.to_json(source))
                .collect(),
        )
    }

    /// Aggregate statistics of the server-wide shared evaluation store.
    pub fn cache_json(&self) -> serde_json::Value {
        CacheStats::of(&self.stack.store).to_value()
    }

    /// Validates and enqueues a job, returning its id.
    ///
    /// # Errors
    ///
    /// Fails on an unknown task/backend, invalid weights (empty, out of
    /// range, or duplicated), a zero step budget, an out-of-range width,
    /// a full queue, or — in cluster mode — a key this shard does not
    /// own (writes never fail over; the error names the owning shard).
    pub fn submit(&self, spec: JobSpec) -> Result<u64, String> {
        if !(2..=64).contains(&spec.n) {
            return Err(format!("width {} outside [2, 64]", spec.n));
        }
        if let Some(topology) = &self.cfg.cluster {
            let key = key_of(&spec.task, &spec.backend, spec.n);
            if !topology.owns(&key) {
                let owner = topology.primary_of(&key);
                return Err(format!(
                    "wrong shard: key `{key}` is owned by shard {owner} ({}), \
                     not this shard {} — submit there (writes never fail over)",
                    topology.peers[owner], topology.shard_id
                ));
            }
        }
        if spec.steps == 0 {
            return Err("need a nonzero step budget".to_string());
        }
        Weights::try_list(spec.weights.clone())?;
        // Resolve the binding up front so an unknown task/backend fails
        // the submit, not the job.
        let median_w = spec.weights[spec.weights.len() / 2];
        self.stack
            .binding_for(&spec.task, &spec.backend, median_w)?;
        let mut state = lock(&self.state);
        let active = state
            .jobs
            .values()
            .filter(|j| matches!(j.phase, JobPhase::Queued | JobPhase::Running))
            .count();
        if active >= self.cfg.queue_capacity {
            return Err(format!(
                "queue full ({active} active jobs ≥ capacity {})",
                self.cfg.queue_capacity
            ));
        }
        let id = state.next_id;
        state.next_id += 1;
        state.jobs.insert(id, Job::new(spec));
        state.queue.push_back(id);
        drop(state);
        self.persist_jobs();
        self.work.notify_all();
        Ok(id)
    }

    /// Cancels a job: a queued job leaves the queue immediately, a running
    /// job's [`CancelToken`] fires and the worker finalizes it as
    /// `Cancelled` within one event tick.
    ///
    /// # Errors
    ///
    /// Fails on an unknown id or an already-finished job.
    pub fn cancel(&self, id: u64) -> Result<&'static str, String> {
        let mut state = lock(&self.state);
        let job = state
            .jobs
            .get_mut(&id)
            .ok_or_else(|| format!("no such job {id}"))?;
        match job.phase {
            JobPhase::Queued => {
                job.user_cancelled = true;
                job.set_phase(JobPhase::Cancelled);
                job.finished_at = Some(Instant::now());
                state.queue.retain(|&q| q != id);
                drop(state);
                self.persist_jobs();
                Ok("cancelled")
            }
            JobPhase::Running => {
                job.user_cancelled = true;
                job.token.cancel();
                Ok("cancelling")
            }
            ref done => Err(format!("job {id} already {}", done.name())),
        }
    }

    /// One job's status snapshot with up to `tail` recent events.
    ///
    /// # Errors
    ///
    /// Fails on an unknown id.
    pub fn status(&self, id: u64, tail: usize) -> Result<serde_json::Value, String> {
        let state = lock(&self.state);
        let job = state
            .jobs
            .get(&id)
            .ok_or_else(|| format!("no such job {id}"))?;
        Ok(job_json(id, job, tail))
    }

    /// Brief snapshots of every job, in id order.
    pub fn list(&self) -> serde_json::Value {
        let state = lock(&self.state);
        serde_json::Value::Array(
            state
                .jobs
                .iter()
                .map(|(&id, job)| job_json(id, job, 0))
                .collect(),
        )
    }

    /// Spawns the configured worker threads (call once).
    pub fn spawn_workers(self: &Arc<Self>) -> Vec<std::thread::JoinHandle<()>> {
        (0..self.cfg.workers.max(1))
            .map(|_| {
                let manager = Arc::clone(self);
                std::thread::spawn(move || manager.worker_loop())
            })
            .collect()
    }

    /// Graceful shutdown: stops the workers, cancels running jobs via
    /// their tokens, and re-queues them in the persisted state so the next
    /// server instance resumes them. (A `kill -9` skips all of this; the
    /// queue persisted at the last transition is what the restart loads.)
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        {
            let state = lock(&self.state);
            for job in state.jobs.values() {
                if job.phase == JobPhase::Running && !job.user_cancelled {
                    job.token.cancel();
                }
            }
        }
        self.work.notify_all();
    }

    fn worker_loop(&self) {
        loop {
            let (id, spec, token, telemetry) = {
                let mut state = lock(&self.state);
                loop {
                    if self.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(id) = state.queue.pop_front() {
                        let job = state.jobs.get_mut(&id).expect("queued job exists");
                        job.set_phase(JobPhase::Running);
                        break (
                            id,
                            job.spec.clone(),
                            job.token.clone(),
                            Arc::clone(&job.telemetry),
                        );
                    }
                    state = self
                        .work
                        .wait_timeout(state, Duration::from_millis(200))
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            };
            self.persist_jobs();
            let outcome = self.execute(spec.clone(), token, telemetry);
            let mut state = lock(&self.state);
            let job = state.jobs.get_mut(&id).expect("running job exists");
            match outcome {
                Ok((result, merged)) => {
                    job.merged_new_points = merged;
                    if result.completed {
                        job.set_phase(JobPhase::Done);
                    } else if job.user_cancelled {
                        job.set_phase(JobPhase::Cancelled);
                    } else {
                        // Stopped by the shutdown cancel: hand the job
                        // back to the queue for the next server instance.
                        job.set_phase(JobPhase::Queued);
                    }
                }
                Err(e) => job.set_phase(JobPhase::Failed(e)),
            }
            if job.phase != JobPhase::Queued {
                job.finished_at = Some(Instant::now());
            }
            drop(state);
            self.persist_jobs();
        }
    }

    fn execute(
        &self,
        spec: JobSpec,
        token: CancelToken,
        telemetry: Arc<Mutex<JobTelemetry>>,
    ) -> Result<(ExperimentResult, Option<usize>), String> {
        let weights = Weights::try_list(spec.weights.clone())?;
        let median_w = spec.weights[spec.weights.len() / 2];
        let binding = self
            .stack
            .binding_for(&spec.task, &spec.backend, median_w)?;
        let mut base = AgentConfig::small(spec.n, 0.5, spec.steps);
        if binding.synthesis_env {
            base.env = EnvConfig::synthesis(spec.n);
        }
        let experiment = Experiment::builder()
            .n(spec.n)
            .weights(weights)
            .steps(spec.steps)
            .seed(spec.seed)
            .base_config(base)
            .task(Arc::clone(&binding.task))
            .backend(Arc::clone(&binding.backend))
            .eval_cache(Arc::clone(&self.stack.store))
            .eval_threads(self.cfg.eval_threads.min(spec.weights.len()).max(1))
            .cancel_token(token)
            .build();
        // Events touch only this job's own telemetry lock — never the
        // manager-wide state mutex, which status/submit RPCs contend for.
        let tail_cap = self.cfg.event_tail;
        let mut observer = CallbackObserver::new(move |run, event| {
            let mut t = lock(&telemetry);
            t.events_seen += 1;
            if t.first_event_at.is_none() {
                t.first_event_at = Some(Instant::now());
            }
            if matches!(event, Event::DesignFound { .. }) {
                t.designs_found += 1;
            }
            if tail_cap > 0 {
                if t.tail.len() >= tail_cap {
                    t.tail.pop_front();
                }
                t.tail.push_back(event_json(run, event));
            }
        });
        let result = experiment.run(&mut observer)?;
        let merged = if result.completed {
            let pool: Vec<(PrefixGraph, ObjectivePoint)> = result
                .records
                .iter()
                .flat_map(|r| r.designs.iter().cloned())
                .collect();
            Some(self.store.merge(&spec.task, &spec.backend, spec.n, &pool)?)
        } else {
            None
        };
        Ok((result, merged))
    }

    fn persist_jobs(&self) {
        let Some(dir) = &self.cfg.state_dir else {
            return;
        };
        let state = lock(&self.state);
        let jobs: Vec<serde_json::Value> = state
            .jobs
            .iter()
            .map(|(&id, job)| {
                let error = match &job.phase {
                    JobPhase::Failed(e) => serde_json::Value::String(e.clone()),
                    _ => serde_json::Value::Null,
                };
                serde_json::json!({
                    "id": id,
                    "spec": Serialize::to_value(&job.spec),
                    "phase": job.phase.name(),
                    "error": error,
                })
            })
            .collect();
        let value = serde_json::json!({
            "schema": JOBS_SCHEMA,
            "next_id": state.next_id,
            "jobs": serde_json::Value::Array(jobs),
        });
        // Written while still holding the state lock: two concurrent
        // persists whose renames landed in reverse order could otherwise
        // leave a stale snapshot on disk (e.g. resurrecting a cancelled
        // job after a crash-restart).
        if let Err(e) = write_atomic(
            &dir.join("jobs.json"),
            &serde_json::to_string_pretty(&value).expect("infallible"),
        ) {
            // Queue persistence is best-effort durability; serving goes on.
            eprintln!("warning: job-queue persist failed: {e}");
        }
        drop(state);
    }
}

fn load_jobs(path: &std::path::Path, state: &mut ManagerState) -> Result<(), String> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let value: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    match value.get("schema").and_then(value_str) {
        Some(JOBS_SCHEMA) => {}
        other => {
            return Err(format!(
                "{}: expected schema `{JOBS_SCHEMA}`, found {other:?}",
                path.display()
            ))
        }
    }
    state.next_id = value
        .get("next_id")
        .and_then(|v| match v {
            serde_json::Value::Number(n) => n.as_u64(),
            _ => None,
        })
        .unwrap_or(1)
        .max(1);
    for entry in value
        .get("jobs")
        .and_then(serde_json::Value::as_array)
        .unwrap_or(&[])
    {
        let id = entry
            .get("id")
            .and_then(|v| match v {
                serde_json::Value::Number(n) => n.as_u64(),
                _ => None,
            })
            .ok_or_else(|| format!("{}: job entry without id", path.display()))?;
        let spec = entry
            .get("spec")
            .ok_or_else(|| format!("{}: job {id} without spec", path.display()))
            .and_then(|v| JobSpec::from_value(v).map_err(|e| format!("job {id} spec: {e}")))?;
        let phase_name = entry
            .get("phase")
            .and_then(value_str)
            .ok_or_else(|| format!("{}: job {id} without phase", path.display()))?;
        let error = entry.get("error").and_then(value_str);
        let phase = JobPhase::from_name(phase_name, error)
            .ok_or_else(|| format!("{}: job {id}: unknown phase `{phase_name}`", path.display()))?;
        let mut job = Job::new(spec);
        match phase {
            // A job the dead server never finished goes back to the
            // queue — including ones that were mid-run when it died.
            JobPhase::Queued | JobPhase::Running => {
                job.history.push("requeued");
                state.queue.push_back(id);
            }
            terminal => {
                job.set_phase(terminal);
            }
        }
        state.jobs.insert(id, job);
        state.next_id = state.next_id.max(id + 1);
    }
    Ok(())
}

fn job_json(id: u64, job: &Job, tail: usize) -> serde_json::Value {
    let error = match &job.phase {
        JobPhase::Failed(e) => serde_json::Value::String(e.clone()),
        _ => serde_json::Value::Null,
    };
    let elapsed = job
        .finished_at
        .map(|t| (t - job.submitted_at).as_secs_f64());
    let telemetry = lock(&job.telemetry);
    let latency = telemetry
        .first_event_at
        .map(|t| (t - job.submitted_at).as_secs_f64());
    let tail_events: Vec<serde_json::Value> = telemetry
        .tail
        .iter()
        .rev()
        .take(tail)
        .rev()
        .cloned()
        .collect();
    serde_json::json!({
        "id": id,
        "task": job.spec.task.clone(),
        "backend": job.spec.backend.clone(),
        "n": job.spec.n,
        "weights": job.spec.weights.clone(),
        "steps": job.spec.steps,
        "seed": job.spec.seed,
        "phase": job.phase.name(),
        "history": job.history.clone(),
        "error": error,
        "events_seen": telemetry.events_seen,
        "designs_found": telemetry.designs_found,
        "submit_to_first_event_sec": latency,
        "elapsed_sec": elapsed,
        "merged_new_points": job.merged_new_points,
        "frontier_key": key_of(&job.spec.task, &job.spec.backend, job.spec.n),
        "tail": serde_json::Value::Array(tail_events),
    })
}

fn event_json(run: usize, event: &Event) -> serde_json::Value {
    match event {
        Event::Step {
            step,
            epsilon,
            reward,
        } => serde_json::json!({
            "run": run, "type": "step", "step": *step,
            "epsilon": *epsilon, "r_area": reward[0], "r_delay": reward[1],
        }),
        Event::GradStep { grad_step, loss } => serde_json::json!({
            "run": run, "type": "grad_step", "grad_step": *grad_step, "loss": *loss,
        }),
        Event::EpisodeEnd {
            episode,
            scalarized_return,
        } => serde_json::json!({
            "run": run, "type": "episode_end", "episode": *episode,
            "return": *scalarized_return,
        }),
        Event::DesignFound {
            step,
            point,
            size,
            depth,
        } => serde_json::json!({
            "run": run, "type": "design_found", "step": *step,
            "area": point.area, "delay": point.delay, "size": *size, "depth": *depth,
        }),
        Event::CheckpointSaved { step } => serde_json::json!({
            "run": run, "type": "checkpoint_saved", "step": *step,
        }),
    }
}

fn value_str(v: &serde_json::Value) -> Option<&str> {
    match v {
        serde_json::Value::String(s) => Some(s),
        _ => None,
    }
}
