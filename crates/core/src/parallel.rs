//! The asynchronous distributed training system (paper Section IV-D).
//!
//! The paper's key systems observation is that DQN is off-policy, so
//! experience generation (environment + synthesis) decouples from gradient
//! computation: 192 synthesis workers fed one learner. This module
//! reproduces that architecture at thread scale behind the
//! [`crate::experiment::Runner`] interface:
//!
//! - [`evaluate_batch`] — batch evaluation on a worker pool: scoped
//!   threads pull indices from a shared counter (dynamic load balancing
//!   for variable-cost synthesis jobs) into worker-local buffers, so there
//!   is no per-slot locking (used by the figure harnesses and the scaling
//!   benchmark);
//! - [`AsyncRunner`] — actor threads run `envs_per_actor` environments in
//!   lockstep and pick actions through the shared [`ScalarizedPolicy`],
//!   getting their Q-values from one **inference broker** thread (below);
//!   they stream transitions over a channel to a learner thread that
//!   trains on the serial runner's schedule (one gradient step per
//!   `train_every` transitions, so its work does not depend on how fast
//!   experience arrives) and publishes its policy. Publication is a
//!   **snapshot swap**: on each target-sync the learner freezes the online
//!   network into a fused [`FrozenQNet`] (batch-norms folded into their
//!   convolutions) behind an `Arc`; the broker notices the version bump and
//!   clones the `Arc` — a pointer copy, never a weight copy. Actors hold no
//!   network at all. Events stream to the run's observer from both sides.
//!
//! # The cross-actor inference broker
//!
//! Actors never run a forward themselves. Each round an actor draws its
//! exploration coins, sends the states whose coins came up greedy to the
//! broker thread and blocks on that request's reply channel; the broker
//! drains every request currently queued, concatenates the states, runs
//! **one fused forward over the combined batch**, splits the Q-rows back
//! per request and replies. Many small per-actor batches become one large
//! GEMM per service cycle — the thread-scale analogue of the paper's
//! batched inference server in front of its 192 synthesis workers.
//!
//! Centralizing inference also lets the broker **memoize**: Q-values are a
//! pure function of (snapshot, state), so each service cycle runs its
//! fused forward only over the *unique states not already answered under
//! the current snapshot* and serves everything else from a bit-exact memo
//! table (cleared on every publish). Actors frequently pose identical
//! states — shared reset states early in training, revisited prefixes
//! under the greedy policy — and only a central service can deduplicate
//! them across actors.
//!
//! Correctness rests on the fused net being **per-sample**: convolutions,
//! folded batch-norms and LeakyReLU never mix rows, so a state's Q-values
//! are bit-identical whatever batch they ride in (pinned by a test in
//! `crate::qnet`), and batch composition and memo hits change no
//! trajectory. Shutdown is by disconnection in both directions: actors
//! exiting drop their request senders (broker's `recv` errs → broker
//! exits); a broker panic drops the request receiver and every pending
//! request's reply sender, actors see the error as a cancelled decision
//! and break, and the scope re-raises the panic.
//!
//! Because experience arrives asynchronously, the async path is not
//! bit-identical run to run, and it does not support checkpoint/resume —
//! the deterministic [`crate::experiment::SerialRunner`] does.

use crate::agent::{AgentConfig, TrainResult};
use crate::env::PrefixEnv;
use crate::evaluator::{Evaluator, ObjectivePoint};
use crate::experiment::{
    CancelToken, Event, NullObserver, RunContext, RunObserver, RunOutcome, RunRecord, Runner,
};
use crate::qnet::{FrozenQNet, PrefixQNet, QNetConfig};
use crate::task::{self, CircuitTask};
use crossbeam::channel;
use parking_lot::{Mutex, RwLock};
use prefix_graph::PrefixGraph;
use rand::prelude::*;
use rl::{DoubleDqn, EpsilonSchedule, QInfer, ReplayBuffer, ScalarizedPolicy, Transition};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Evaluates `graphs` on up to `threads` workers, preserving order.
///
/// Workers pull indices from a shared atomic counter (so variable-cost
/// jobs — synthesis times differ per graph, and cache hits are near-free
/// next to misses — stay load-balanced) and accumulate into worker-local
/// buffers; there are no per-slot locks. An empty batch returns
/// immediately without spawning anything.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn evaluate_batch(
    graphs: &[PrefixGraph],
    evaluator: &dyn Evaluator,
    threads: usize,
) -> Vec<ObjectivePoint> {
    assert!(threads > 0, "need at least one worker");
    if graphs.is_empty() {
        return Vec::new();
    }
    if threads == 1 || graphs.len() == 1 {
        return graphs.iter().map(|g| evaluator.evaluate(g)).collect();
    }
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut local = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(graph) = graphs.get(i) else {
                return local;
            };
            local.push((i, evaluator.evaluate(graph)));
        }
    };
    let placeholder = ObjectivePoint {
        area: f64::NAN,
        delay: f64::NAN,
    };
    let mut results = vec![placeholder; graphs.len()];
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.min(graphs.len()))
            .map(|_| s.spawn(worker))
            .collect();
        for handle in handles {
            for (i, point) in handle.join().expect("evaluation worker panicked") {
                results[i] = point;
            }
        }
    });
    results
}

/// The frozen policy snapshot published by the learner.
///
/// Only the broker reads it: one atomic load of `version` per service
/// cycle, and the lock only when it bumps — and even then it clones an
/// `Arc`, never the weights.
struct PolicyBoard {
    version: AtomicU64,
    snapshot: RwLock<Arc<FrozenQNet>>,
}

/// The design pool shared by all actors: canonical key → (graph, metrics).
type DesignPool = Mutex<HashMap<Vec<u64>, (PrefixGraph, ObjectivePoint)>>;

/// One actor's greedy-state batch awaiting Q-values, plus the reply
/// channel the actor blocks on. The broker answers each request with
/// exactly `states.len()` Q-rows.
struct InferRequest {
    states: Vec<Vec<f32>>,
    reply: channel::Sender<Vec<Vec<[f32; 2]>>>,
}

/// Entry cap for the broker's per-snapshot memo table — a backstop for
/// pathological state churn between publishes (publishes clear the table
/// long before this in practice). Keys are full feature vectors, so the
/// cap is what bounds worst-case broker memory: [`BrokerMemo::resolve`]
/// never lets the table exceed it, even when a single cycle's fresh set
/// is larger than the whole cap.
const BROKER_MEMO_CAP: usize = 1 << 12;

/// The broker's per-snapshot Q-row memo: state bit-pattern → Q-rows.
/// Cleared on every snapshot publish; holds at most `cap` entries.
struct BrokerMemo {
    cap: usize,
    rows: HashMap<Vec<u32>, Vec<[f32; 2]>>,
}

impl BrokerMemo {
    fn new(cap: usize) -> Self {
        BrokerMemo {
            cap,
            rows: HashMap::new(),
        }
    }

    /// Drop every memoized row (the snapshot changed).
    fn clear(&mut self) {
        self.rows.clear();
    }

    /// Resolve one decision cycle: return one Q-row per key, in key
    /// order, running `infer` at most once over the deduplicated states
    /// not already memoized. `keys[i]` must be the bit pattern of
    /// `states[i]`.
    ///
    /// Replies are assembled from a cycle-local map into which memo hits
    /// are copied *before* any eviction, so the cap backstop below can
    /// never drop a row the current cycle still needs.
    fn resolve(
        &mut self,
        keys: &[Vec<u32>],
        states: &[&[f32]],
        infer: impl FnOnce(&[&[f32]]) -> Vec<Vec<[f32; 2]>>,
    ) -> Vec<Vec<[f32; 2]>> {
        debug_assert_eq!(keys.len(), states.len());
        let mut cycle: HashMap<&Vec<u32>, Vec<[f32; 2]>> = HashMap::new();
        let mut fresh: Vec<(&Vec<u32>, &[f32])> = Vec::new();
        let mut seen: HashSet<&Vec<u32>> = HashSet::new();
        for (key, &state) in keys.iter().zip(states) {
            if !seen.insert(key) {
                continue;
            }
            match self.rows.get(key) {
                Some(hit) => {
                    cycle.insert(key, hit.clone());
                }
                None => fresh.push((key, state)),
            }
        }
        if !fresh.is_empty() {
            let batch: Vec<&[f32]> = fresh.iter().map(|&(_, s)| s).collect();
            let q = infer(&batch);
            debug_assert_eq!(q.len(), fresh.len());
            // Cap backstop: evict earlier cycles' rows, then memoize the
            // fresh rows only while room remains, so the table never
            // exceeds `cap` entries. The reply scatter reads `cycle`,
            // never the memo, so eviction cannot lose a row mid-cycle.
            if self.rows.len() + fresh.len() > self.cap {
                self.rows.clear();
            }
            for (&(key, _), row) in fresh.iter().zip(q) {
                if self.rows.len() < self.cap {
                    self.rows.insert(key.clone(), row.clone());
                }
                cycle.insert(key, row);
            }
        }
        keys.iter().map(|k| cycle[k].clone()).collect()
    }
}

/// One broker service cycle: answers every request in `pending` (and
/// drains it), running `infer` at most once over the unique states `memo`
/// does not already hold. Each request's reply channel receives exactly
/// its own Q-rows, in its state order.
fn serve_cycle(
    pending: &mut Vec<InferRequest>,
    memo: &mut BrokerMemo,
    infer: impl FnOnce(&[&[f32]]) -> Vec<Vec<[f32; 2]>>,
) {
    // One bit-exact key per pending state, request order.
    let keys: Vec<Vec<u32>> = pending
        .iter()
        .flat_map(|r| r.states.iter())
        .map(|s| s.iter().map(|v| v.to_bits()).collect())
        .collect();
    let states: Vec<&[f32]> = pending
        .iter()
        .flat_map(|r| r.states.iter().map(Vec::as_slice))
        .collect();
    let mut rows = memo.resolve(&keys, &states, infer).into_iter();
    for req in pending.drain(..) {
        let reply: Vec<Vec<[f32; 2]>> = rows.by_ref().take(req.states.len()).collect();
        // A send error means the requesting actor already exited (cancel
        // landed mid-request) — drop the rows.
        let _ = req.reply.send(reply);
    }
}

/// Asks the broker for `batch`'s Q-rows and blocks for the reply; `None`
/// when the broker is gone. The reply sender lives only in the request, so
/// a broker that dies before answering disconnects the receiver instead of
/// leaving the actor blocked on it.
fn request_rows(
    broker: &channel::Sender<InferRequest>,
    batch: &[&[f32]],
) -> Option<Vec<Vec<[f32; 2]>>> {
    let (reply, rows) = channel::bounded(1);
    let states = batch.iter().map(|s| s.to_vec()).collect();
    broker.send(InferRequest { states, reply }).ok()?;
    rows.recv().ok()
}

/// The asynchronous actor/learner runner: `actors` parallel experience
/// generators feed one learner thread.
///
/// Semantics match the serial runner (same config fields, and the same
/// number of gradient steps: one per `train_every` transitions once the
/// replay holds `min_replay`), but experience arrives asynchronously, so
/// per-step pairing of acting and learning is not bit-identical to the
/// serial path and checkpoint/resume is not supported. Each actor steps
/// `envs_per_actor` environments per decision round; total environment
/// steps across all actors equal `cfg.total_steps`.
pub struct AsyncRunner {
    /// Number of actor threads (≥ 1).
    pub actors: usize,
}

impl AsyncRunner {
    /// An async runner with `actors` actor threads, all served by one
    /// inference broker.
    pub fn new(actors: usize) -> Self {
        AsyncRunner { actors }
    }

    /// Convenience: trains one agent to completion unobserved. Sweeps and
    /// observed runs should go through [`crate::experiment::Experiment`].
    ///
    /// # Panics
    ///
    /// Panics if the runner was built with zero actors.
    pub fn train(&self, cfg: &AgentConfig, evaluator: Arc<dyn Evaluator>) -> TrainResult {
        assert!(self.actors > 0, "need at least one actor");
        let task = task::by_name(&cfg.env.task)
            .unwrap_or_else(|| panic!("unknown task `{}`", cfg.env.task));
        let record = run_async(
            0,
            cfg,
            task,
            evaluator,
            self.actors,
            &mut NullObserver,
            &CancelToken::new(),
        );
        TrainResult {
            designs: record.designs,
            losses: record.losses,
            episode_returns: record.episode_returns,
            steps: record.steps,
        }
    }
}

impl Runner for AsyncRunner {
    fn run(&self, ctx: RunContext<'_>) -> Result<RunOutcome, String> {
        if self.actors == 0 {
            return Err("need at least one actor".to_string());
        }
        if ctx.resume.is_some() {
            return Err(
                "AsyncRunner does not support checkpoint resume; use the serial runner \
                 (actors = 1)"
                    .to_string(),
            );
        }
        if ctx.checkpoint_every.is_some() || ctx.halt_at.is_some() {
            return Err(
                "AsyncRunner does not support checkpointing or halt-at (asynchronous \
                 experience makes resume non-reproducible); use the serial runner \
                 (actors = 1)"
                    .to_string(),
            );
        }
        let record = run_async(
            ctx.run_id,
            ctx.cfg,
            ctx.task,
            ctx.evaluator,
            self.actors,
            ctx.observer,
            &ctx.cancel,
        );
        // A cancel that lands after the actors already exhausted the
        // budget changes nothing — the run is complete (mirrors the
        // serial runner's `!lp.is_done()` guard); otherwise a cancelled
        // run returns its partial record with `completed == false`: not
        // resumable (no checkpoint), but the designs are not lost.
        let completed = !ctx.cancel.is_cancelled() || record.steps >= ctx.cfg.total_steps;
        Ok(RunOutcome { record, completed })
    }
}

fn run_async(
    run_id: usize,
    cfg: &AgentConfig,
    circuit_task: Arc<dyn CircuitTask>,
    evaluator: Arc<dyn Evaluator>,
    num_actors: usize,
    observer: &mut dyn RunObserver,
    cancel: &CancelToken,
) -> RunRecord {
    let online = PrefixQNet::new(&cfg.qnet);
    let board = PolicyBoard {
        version: AtomicU64::new(1),
        snapshot: RwLock::new(Arc::new(online.frozen())),
    };
    let (tx, rx) = channel::bounded::<Transition>(4096);
    let steps_taken = Arc::new(AtomicU64::new(0));
    let designs: Arc<DesignPool> = Arc::new(Mutex::new(HashMap::new()));
    let schedule = EpsilonSchedule::linear(cfg.eps_start, cfg.eps_end, cfg.eps_decay_steps);
    let observer = Mutex::new(observer);
    let episode_returns: Mutex<Vec<f64>> = Mutex::new(Vec::new());

    let losses = std::thread::scope(|s| {
        // The inference broker: drains every queued request, runs one
        // fused forward over the concatenation, scatters the Q-rows back.
        // Capacity `num_actors` means a round of actors never blocks on
        // the request send (each actor has at most one request in flight).
        let (broker_tx, broker_rx) = channel::bounded::<InferRequest>(num_actors);
        let board = &board;
        s.spawn(move || {
            let mut scratch = nn::Scratch::new();
            // The version must be read *before* the snapshot: a publish
            // landing between the two reads then makes the next cycle's
            // check refresh, instead of pinning a stale snapshot for a
            // whole sync interval.
            let mut my_version = board.version.load(Ordering::Acquire);
            let mut snapshot: Arc<FrozenQNet> = board.snapshot.read().clone();
            let mut pending: Vec<InferRequest> = Vec::new();
            // Q-rows already computed under the current snapshot, keyed
            // by the state's exact f32 bit pattern. A memo hit returns
            // precisely the bits a fresh forward would (inference is
            // deterministic and per-sample), so this changes no actor's
            // trajectory — it only skips forwards.
            let mut memo = BrokerMemo::new(BROKER_MEMO_CAP);
            // Blocking recv for the first request of a cycle, then a
            // non-blocking drain of whatever else is already queued. No
            // waiting for stragglers: the memo table makes batch size a
            // minor factor (a state computed this cycle is a memo hit next
            // cycle, whichever request it rides in), so serving
            // immediately minimizes decision latency and context switches.
            // Batch composition cannot change any Q-value, so drain depth
            // is a throughput knob only. Exits when the last actor drops
            // its sender.
            while let Ok(first) = broker_rx.recv() {
                pending.push(first);
                while let Ok(more) = broker_rx.try_recv() {
                    pending.push(more);
                }
                let published = board.version.load(Ordering::Acquire);
                if published != my_version {
                    snapshot = board.snapshot.read().clone();
                    my_version = published;
                    memo.clear();
                }
                serve_cycle(&mut pending, &mut memo, |batch| {
                    snapshot.infer(batch, &mut scratch)
                });
            }
        });

        // Actors.
        for actor in 0..num_actors {
            let tx = tx.clone();
            let broker_tx = broker_tx.clone();
            let steps_taken = Arc::clone(&steps_taken);
            let designs = Arc::clone(&designs);
            let evaluator = Arc::clone(&evaluator);
            let circuit_task = Arc::clone(&circuit_task);
            let cfg = cfg.clone();
            let observer = &observer;
            let episode_returns = &episode_returns;
            let cancel = cancel.clone();
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ ((actor as u64 + 1) * 0x9e37));
                let policy = ScalarizedPolicy::new(cfg.dqn.weight);
                let num_envs = cfg.envs_per_actor.max(1);
                let mut envs: Vec<PrefixEnv> = (0..num_envs)
                    .map(|_| {
                        PrefixEnv::with_task(
                            cfg.env.clone(),
                            Arc::clone(&circuit_task),
                            Arc::clone(&evaluator),
                        )
                    })
                    .collect();
                let mut env_returns = vec![0.0f64; num_envs];
                for env in &mut envs {
                    env.reset(&mut rng);
                    record_design(run_id, &designs, env, observer, 0);
                }
                'acting: loop {
                    // Poll the token per decision round: pause blocks all
                    // actors here (the learner idles on its empty channel),
                    // cancel ends acting — the learner then drains what is
                    // queued and exits when the last sender drops.
                    if cancel.wait_while_paused() {
                        break 'acting;
                    }
                    let claimed = steps_taken.fetch_add(num_envs as u64, Ordering::Relaxed);
                    if claimed >= cfg.total_steps {
                        break;
                    }
                    let round = (num_envs as u64).min(cfg.total_steps - claimed) as usize;
                    let eps = schedule.value(claimed);
                    // One broker request for the whole environment round.
                    let mut states: Vec<Vec<f32>> =
                        envs[..round].iter().map(PrefixEnv::features).collect();
                    let masks: Vec<Vec<bool>> =
                        envs[..round].iter().map(PrefixEnv::action_mask).collect();
                    let state_refs: Vec<&[f32]> = states.iter().map(Vec::as_slice).collect();
                    let mask_refs: Vec<&[bool]> = masks.iter().map(Vec::as_slice).collect();
                    let picked = policy.select_actions_with(
                        &state_refs,
                        &mask_refs,
                        eps,
                        &mut rng,
                        |batch| request_rows(&broker_tx, batch),
                    );
                    // Broker gone mid-decision (it panicked and its unwind
                    // dropped our reply sender): abandon the round so the
                    // scope can re-raise the broker's panic.
                    let Some(actions) = picked else {
                        break 'acting;
                    };
                    for (i, action) in actions.into_iter().enumerate() {
                        let action = action.expect("legal action always exists");
                        let env = &mut envs[i];
                        let step_index = claimed + i as u64;
                        let outcome = env.step_flat(action);
                        record_design(run_id, &designs, env, observer, step_index);
                        env_returns[i] += (cfg.dqn.weight[0] * outcome.reward[0]
                            + cfg.dqn.weight[1] * outcome.reward[1])
                            as f64;
                        observer.lock().on_event(
                            run_id,
                            &Event::Step {
                                step: step_index,
                                epsilon: eps,
                                reward: outcome.reward,
                            },
                        );
                        let t = Transition {
                            state: std::mem::take(&mut states[i]),
                            action,
                            reward: outcome.reward,
                            next_state: env.features(),
                            next_mask: env.action_mask(),
                            done: false,
                        };
                        if tx.send(t).is_err() {
                            break 'acting; // learner gone
                        }
                        if outcome.truncated {
                            let finished = {
                                let mut returns = episode_returns.lock();
                                returns.push(env_returns[i]);
                                returns.len()
                            };
                            observer.lock().on_event(
                                run_id,
                                &Event::EpisodeEnd {
                                    episode: finished,
                                    scalarized_return: env_returns[i],
                                },
                            );
                            env_returns[i] = 0.0;
                            env.reset(&mut rng);
                            record_design(run_id, &designs, env, observer, step_index);
                        }
                    }
                }
                drop(tx);
            });
        }
        drop(tx);
        // The actors hold the only remaining request senders: the broker
        // exits exactly when the last actor does.
        drop(broker_tx);

        // Learner (runs on this thread).
        let target = PrefixQNet::new(&QNetConfig {
            seed: cfg.qnet.seed ^ 0x5eed,
            ..cfg.qnet.clone()
        });
        let mut dqn = DoubleDqn::new(online, target, cfg.dqn.clone());
        let mut replay = ReplayBuffer::new(cfg.replay_capacity);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xdead);
        let mut losses = Vec::new();
        let mut since_publish = 0u64;
        // The serial runner's schedule: one gradient step per
        // `train_every` transitions, counted in arrival order, once the
        // replay holds `min_replay`. The learner's work is then a function
        // of the step budget, not of how fast experience arrives; when it
        // falls behind, transitions queue (actors block only on a full
        // channel) and it catches up. After a cancel it only drains.
        let mut received = 0u64;
        while let Ok(t) = rx.recv() {
            replay.push(t);
            let index = received;
            received += 1;
            if cfg.train_every == 0
                || !index.is_multiple_of(cfg.train_every)
                || cancel.is_cancelled()
            {
                continue;
            }
            if let Some(loss) = dqn.train_step(&replay, &mut rng) {
                losses.push(loss);
                observer.lock().on_event(
                    run_id,
                    &Event::GradStep {
                        grad_step: losses.len() as u64,
                        loss,
                    },
                );
                since_publish += 1;
                if since_publish >= cfg.dqn.target_sync_every {
                    since_publish = 0;
                    *board.snapshot.write() = Arc::new(dqn.online().frozen());
                    board.version.fetch_add(1, Ordering::Release);
                }
            }
        }
        losses
    });

    let designs = Arc::try_unwrap(designs)
        .map(|m| m.into_inner())
        .unwrap_or_else(|arc| arc.lock().clone());
    // Sort by canonical key so async reports are stable to consume even
    // though the pool filled in nondeterministic order.
    let mut designs: Vec<(Vec<u64>, (PrefixGraph, ObjectivePoint))> = designs.into_iter().collect();
    designs.sort_by(|a, b| a.0.cmp(&b.0));
    // A cancelled run executed only the rounds claimed before the token
    // fired; a completed one claims past the budget but truncates its last
    // round, so the executed count is exactly the budget.
    let steps = steps_taken.load(Ordering::Relaxed).min(cfg.total_steps);
    RunRecord {
        run: run_id,
        w_area: cfg.dqn.weight[0] as f64,
        steps,
        designs: designs.into_iter().map(|(_, d)| d).collect(),
        losses,
        episode_returns: episode_returns.into_inner(),
    }
}

fn record_design(
    run_id: usize,
    designs: &DesignPool,
    env: &PrefixEnv,
    observer: &Mutex<&mut dyn RunObserver>,
    step: u64,
) {
    let key = env.graph().canonical_key();
    let mut pool = designs.lock();
    if pool.contains_key(&key) {
        return;
    }
    pool.insert(key, (env.graph().clone(), env.metrics()));
    drop(pool);
    observer.lock().on_event(
        run_id,
        &Event::DesignFound {
            step,
            point: env.metrics(),
            size: env.graph().size(),
            depth: env.graph().depth() as usize,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedEvaluator;
    use crate::task::{Adder, TaskEvaluator};

    fn run(cfg: &AgentConfig, evaluator: Arc<dyn Evaluator>, actors: usize) -> RunRecord {
        run_async(
            0,
            cfg,
            Arc::new(Adder),
            evaluator,
            actors,
            &mut NullObserver,
            &CancelToken::new(),
        )
    }

    #[test]
    fn async_training_completes_and_harvests() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 400;
        let eval = Arc::new(CachedEvaluator::new(TaskEvaluator::analytical(Adder)));
        let result = run(&cfg, eval.clone(), 3);
        assert!(
            result.designs.len() > 20,
            "{} designs",
            result.designs.len()
        );
        assert!(!result.losses.is_empty(), "learner never trained");
        for (g, _) in &result.designs {
            g.verify_legal().unwrap();
        }
        // Actors share the cache: repeated start states must hit.
        assert!(eval.store().hits() > 0);
        // Async now reports per-environment episode returns too.
        assert!(!result.episode_returns.is_empty());
    }

    #[test]
    fn async_and_serial_explore_comparable_design_counts() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 300;
        let mut lp = crate::agent::TrainLoop::new(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
        lp.run_to_completion(0, &mut NullObserver);
        let serial = lp.into_parts().1;
        let parallel = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)), 2);
        // Same step budget → same order of magnitude of distinct designs.
        let (a, b) = (serial.designs.len() as f64, parallel.designs.len() as f64);
        assert!(a / b < 4.0 && b / a < 4.0, "serial {a} vs async {b}");
    }

    /// The learner keeps the serial runner's schedule whatever the actors'
    /// pace: one gradient step per `train_every` transitions once the
    /// replay holds `min_replay` (none at 0), so for one step budget both
    /// runners take the same number of gradient steps.
    #[test]
    fn async_learner_takes_the_serial_number_of_gradient_steps() {
        for train_every in [0u64, 1, 4, 16] {
            let mut cfg = AgentConfig::tiny(8, 0.5);
            cfg.total_steps = 300;
            cfg.train_every = train_every;
            let mut lp =
                crate::agent::TrainLoop::new(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
            lp.run_to_completion(0, &mut NullObserver);
            let serial = lp.into_parts().1.losses.len();
            for actors in [1, 3] {
                let parallel = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)), actors);
                assert_eq!(
                    parallel.losses.len(),
                    serial,
                    "train_every {train_every}, {actors} actor(s)"
                );
            }
        }
    }

    #[test]
    fn single_env_actors_still_work() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 200;
        cfg.envs_per_actor = 1;
        let result = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)), 2);
        assert!(
            result.designs.len() > 10,
            "{} designs",
            result.designs.len()
        );
    }

    /// With one actor the async run is deterministic once the learner
    /// never publishes (`target_sync_every` beyond the step budget pins
    /// the initial snapshot): the actor's RNG, the analytical evaluator
    /// and the learner's arrival order are all fixed, and the broker's
    /// batching and memo change no Q-value. Two runs must then agree
    /// **bitwise** — same steps, episode returns, losses and designs.
    #[test]
    fn frozen_policy_single_actor_run_repeats_bitwise() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 240;
        cfg.dqn.target_sync_every = u64::MAX; // never publish: frozen policy
        let [a, b] = [(); 2].map(|_| run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)), 1));
        assert_eq!(a.steps, 240);
        assert_eq!(a.steps, b.steps);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a.episode_returns),
            bits(&b.episode_returns),
            "episode returns diverged"
        );
        let loss_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            loss_bits(&a.losses),
            loss_bits(&b.losses),
            "losses diverged"
        );
        assert_eq!(a.designs.len(), b.designs.len(), "design pools diverged");
        for ((ga, pa), (gb, pb)) in a.designs.iter().zip(&b.designs) {
            assert_eq!(ga.canonical_key(), gb.canonical_key());
            assert_eq!(
                (pa.area.to_bits(), pa.delay.to_bits()),
                (pb.area.to_bits(), pb.delay.to_bits())
            );
        }
    }

    /// Q-rows as bit patterns, so equality is bitwise.
    fn row_bits(rows: &[Vec<[f32; 2]>]) -> Vec<Vec<[u32; 2]>> {
        rows.iter()
            .map(|r| r.iter().map(|q| q.map(f32::to_bits)).collect())
            .collect()
    }

    /// The broker's service cycle is a pure transport: across cycles with
    /// duplicate states inside and across requests, memo hits from an
    /// earlier cycle and a `clear()` standing in for a publish, each reply
    /// channel gets exactly its own rows, bitwise equal to the current
    /// snapshot's `infer` run on that request alone.
    #[test]
    fn broker_cycle_replies_match_direct_inference_per_request() {
        let cfg = AgentConfig::tiny(8, 0.5);
        // Real environment states: a reset state and a short walk from it.
        let mut env = PrefixEnv::with_task(
            cfg.env.clone(),
            Arc::new(Adder),
            Arc::new(TaskEvaluator::analytical(Adder)),
        );
        let mut rng = StdRng::seed_from_u64(7);
        env.reset(&mut rng);
        let mut walk = vec![env.features()];
        for _ in 0..5 {
            let mask = env.action_mask();
            let legal: Vec<usize> = (0..mask.len()).filter(|&a| mask[a]).collect();
            env.step_flat(legal[rng.random_range(0..legal.len())]);
            walk.push(env.features());
        }
        let republished = QNetConfig {
            seed: cfg.qnet.seed ^ 0x5eed,
            ..cfg.qnet.clone()
        };
        let nets = [
            PrefixQNet::new(&cfg.qnet).frozen(),
            PrefixQNet::new(&republished).frozen(),
        ];
        // Cycles as (snapshot, requests as indices into `walk`): cycle 1
        // repeats cycle 0's states (memo hits), cycle 2 follows a publish.
        let cycles: [(usize, Vec<Vec<usize>>); 3] = [
            (0, vec![vec![0, 1, 0], vec![1, 2], vec![3]]),
            (0, vec![vec![2, 4], vec![0], vec![5, 5, 1]]),
            (1, vec![vec![0, 1], vec![4, 0, 2]]),
        ];
        let mut memo = BrokerMemo::new(BROKER_MEMO_CAP);
        let mut scratch = nn::Scratch::new();
        let mut published = 0;
        let mut pending = Vec::new();
        for (net, requests) in cycles {
            if net != published {
                memo.clear();
                published = net;
            }
            let replies: Vec<_> = requests
                .iter()
                .map(|idx| {
                    let (reply, rx) = channel::bounded(1);
                    let states = idx.iter().map(|&i| walk[i].clone()).collect();
                    pending.push(InferRequest { states, reply });
                    rx
                })
                .collect();
            let mut forwarded = 0;
            serve_cycle(&mut pending, &mut memo, |batch| {
                forwarded = batch.len();
                nets[net].infer(batch, &mut nn::Scratch::new())
            });
            assert!(pending.is_empty(), "a cycle drains its requests");
            let unique: HashSet<&usize> = requests.iter().flatten().collect();
            assert!(forwarded <= unique.len(), "a duplicate reached the net");
            for (idx, rx) in requests.iter().zip(&replies) {
                let alone: Vec<&[f32]> = idx.iter().map(|&i| walk[i].as_slice()).collect();
                let direct = nets[net].infer(&alone, &mut scratch);
                let got = rx.recv().expect("every request gets a reply");
                assert_eq!(row_bits(&got), row_bits(&direct), "request {idx:?}");
                assert!(rx.try_recv().is_err(), "exactly one reply per request");
            }
        }
    }

    fn bit_keys(states: &[Vec<f32>]) -> Vec<Vec<u32>> {
        states
            .iter()
            .map(|s| s.iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    fn slices(states: &[Vec<f32>]) -> Vec<&[f32]> {
        states.iter().map(Vec::as_slice).collect()
    }

    /// Per-state fake forward: Q-row is a function of the state alone,
    /// so a memoized reply and a recomputed reply are distinguishable
    /// from a wrong-row reply but not from each other.
    fn fake_infer(batch: &[&[f32]]) -> Vec<Vec<[f32; 2]>> {
        batch.iter().map(|s| vec![[s[0], -s[0]]]).collect()
    }

    /// Regression: memo-cap eviction used to `clear()` rows that the
    /// current cycle's reply scatter still needed — a state that is a
    /// memo *hit* this cycle is excluded from the fused batch, so after
    /// eviction its lookup panicked and took down the whole run. Trip
    /// the cap in a cycle that contains such a duplicate and check every
    /// row still comes back, with the table staying within the cap.
    #[test]
    fn broker_memo_cap_eviction_preserves_current_cycle_hits() {
        let mut memo = BrokerMemo::new(4);
        let warm: Vec<Vec<f32>> = (0..3).map(|i| vec![i as f32]).collect();
        let rows = memo.resolve(&bit_keys(&warm), &slices(&warm), fake_infer);
        assert_eq!(rows.len(), 3);
        // 3 memoized + 2 fresh > cap 4, and the first state is a hit.
        let trip: Vec<Vec<f32>> = vec![vec![0.0], vec![10.0], vec![11.0]];
        let rows = memo.resolve(&bit_keys(&trip), &slices(&trip), fake_infer);
        assert_eq!(
            rows,
            vec![vec![[0.0, 0.0]], vec![[10.0, -10.0]], vec![[11.0, -11.0]],]
        );
        assert!(memo.rows.len() <= 4, "{} entries", memo.rows.len());
    }

    /// The cap is a hard bound even when one cycle's fresh set alone
    /// exceeds it: the overflow portion is served but not memoized.
    #[test]
    fn broker_memo_never_exceeds_cap() {
        let mut memo = BrokerMemo::new(2);
        let big: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32 + 1.0]).collect();
        let rows = memo.resolve(&bit_keys(&big), &slices(&big), fake_infer);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row, &vec![[i as f32 + 1.0, -(i as f32 + 1.0)]]);
        }
        assert!(memo.rows.len() <= 2, "{} entries", memo.rows.len());
    }

    /// Repeats — across cycles and within one cycle — reach the fused
    /// forward exactly once; every key still gets its row.
    #[test]
    fn broker_memo_deduplicates_hits_and_in_cycle_repeats() {
        let mut memo = BrokerMemo::new(16);
        let states: Vec<Vec<f32>> = vec![vec![1.0], vec![2.0], vec![1.0]];
        let forwarded = std::cell::Cell::new(0usize);
        let counting = |batch: &[&[f32]]| {
            forwarded.set(forwarded.get() + batch.len());
            fake_infer(batch)
        };
        let first = memo.resolve(&bit_keys(&states), &slices(&states), counting);
        assert_eq!(forwarded.get(), 2, "in-cycle repeat reached the net");
        let second = memo.resolve(&bit_keys(&states), &slices(&states), counting);
        assert_eq!(forwarded.get(), 2, "memo hit reached the net");
        assert_eq!(first, second);
        memo.clear();
        memo.resolve(&bit_keys(&states), &slices(&states), counting);
        assert_eq!(forwarded.get(), 4, "clear() must drop memoized rows");
    }

    #[test]
    fn async_runner_rejects_resume() {
        let cfg = AgentConfig::tiny(8, 0.5);
        let mut lp = crate::agent::TrainLoop::new(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
        for _ in 0..10 {
            lp.step_once(0, &mut NullObserver);
        }
        let ckpt = lp.checkpoint();
        let runner = AsyncRunner::new(2);
        let err = runner
            .run(RunContext {
                run_id: 0,
                cfg: &cfg,
                task: Arc::new(Adder),
                evaluator: Arc::new(TaskEvaluator::analytical(Adder)),
                observer: &mut NullObserver,
                checkpoint_every: None,
                on_checkpoint: None,
                resume: Some(ckpt),
                halt_at: None,
                cancel: CancelToken::new(),
            })
            .unwrap_err();
        assert!(err.contains("resume"), "{err}");
    }

    #[test]
    fn async_runner_rejects_checkpoint_requests() {
        let cfg = AgentConfig::tiny(8, 0.5);
        for (every, halt) in [(Some(50), None), (None, Some(50))] {
            let err = AsyncRunner::new(2)
                .run(RunContext {
                    run_id: 0,
                    cfg: &cfg,
                    task: Arc::new(Adder),
                    evaluator: Arc::new(TaskEvaluator::analytical(Adder)),
                    observer: &mut NullObserver,
                    checkpoint_every: every,
                    on_checkpoint: None,
                    resume: None,
                    halt_at: halt,
                    cancel: CancelToken::new(),
                })
                .unwrap_err();
            assert!(err.contains("checkpointing"), "{err}");
        }
    }

    /// Serve-shutdown audit (DESIGN.md §13): a panic inside the async
    /// system must propagate out of `run_async`, not hang it. An
    /// evaluator panic unwinds an actor; the scope unwind drops its
    /// transition sender, the learner's `recv` disconnects once the last
    /// sender is gone, surviving actors exit through the send-error break,
    /// and the scope re-raises the panic. Symmetrically, a learner panic
    /// drops the receiver during unwind, every blocked `tx.send` errors,
    /// and all actors break — the broker's `Arc<FrozenQNet>` snapshot
    /// keeps the learner's published weights alive until it exits, so no
    /// use-after-free window exists. This test pins the actor direction
    /// (the only one with an injection point) with a watchdog.
    #[test]
    fn evaluator_panic_propagates_instead_of_hanging() {
        struct PanicAfter {
            calls: AtomicU64,
        }
        impl Evaluator for PanicAfter {
            fn evaluate(&self, graph: &PrefixGraph) -> ObjectivePoint {
                if self.calls.fetch_add(1, Ordering::SeqCst) >= 20 {
                    panic!("synthetic oracle failure");
                }
                ObjectivePoint {
                    area: graph.size() as f64,
                    delay: graph.depth() as f64,
                }
            }
            fn name(&self) -> &str {
                "panic-after"
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut cfg = AgentConfig::tiny(8, 0.5);
                cfg.total_steps = 100_000;
                AsyncRunner::new(3).train(
                    &cfg,
                    Arc::new(PanicAfter {
                        calls: AtomicU64::new(0),
                    }),
                )
            }));
            let _ = tx.send(outcome.is_err());
        });
        let panicked = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("async system hung after an actor panic");
        assert!(panicked, "the panic must propagate to the caller");
    }

    /// A broker that panics while holding an actor's request must release
    /// that actor: its unwind drops the request, and with it the only
    /// sender of the reply channel, so the actor's wait ends with `None`
    /// (the round is abandoned and the scope re-raises the panic).
    #[test]
    fn broker_panic_mid_request_releases_the_actor() {
        let (broker_tx, broker_rx) = channel::bounded::<InferRequest>(1);
        let broker = std::thread::spawn(move || {
            let _held = broker_rx.recv().expect("one request arrives");
            panic!("synthetic broker failure");
        });
        let (tx, done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(request_rows(&broker_tx, &[&[1.0]]));
        });
        let rows = done
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("actor stayed blocked after the broker died");
        assert!(rows.is_none());
        assert!(broker.join().is_err(), "the broker panicked");
    }

    /// Serve-shutdown audit (DESIGN.md §13): a `ChannelObserver` whose
    /// receiver is dropped mid-run must not stall training. The observer
    /// sends with `let _ =`, and the compat channel's `send` returns an
    /// error (rather than blocking) once the receiver is gone — even for
    /// senders already blocked on a full channel — so events are dropped
    /// and the run finishes.
    #[test]
    fn observer_receiver_dropped_mid_run_does_not_stall() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 300;
        // Capacity 1: without the disconnect-errors guarantee the very
        // first unconsumed event after the drop would block forever.
        let (mut observer, rx) = crate::experiment::ChannelObserver::bounded(1);
        let (tx, done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let record = run_async(
                0,
                &cfg,
                Arc::new(Adder),
                Arc::new(TaskEvaluator::analytical(Adder)),
                2,
                &mut observer,
                &CancelToken::new(),
            );
            let _ = tx.send(record);
        });
        // Consume one event to prove the stream was live, then hang up
        // (the compat receiver has no recv_timeout; poll with a deadline).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            if rx.try_recv().is_ok() {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no event ever arrived"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        drop(rx);
        let record = done
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run stalled after the observer receiver was dropped");
        assert_eq!(record.steps, 300);
    }

    #[test]
    fn cancel_token_stops_async_run_with_partial_record() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 1_000_000; // far beyond what a test should run
        let token = CancelToken::new();
        let cancel_at = 300u64;
        let canceller = token.clone();
        let mut observer = crate::experiment::CallbackObserver::new(move |_, e| {
            if let Event::Step { step, .. } = e {
                if *step >= cancel_at {
                    canceller.cancel();
                }
            }
        });
        let record = run_async(
            0,
            &cfg,
            Arc::new(Adder),
            Arc::new(TaskEvaluator::analytical(Adder)),
            2,
            &mut observer,
            &token,
        );
        assert!(
            record.steps >= cancel_at && record.steps < cfg.total_steps,
            "cancel must stop the run early (steps = {})",
            record.steps
        );
        assert!(!record.designs.is_empty(), "partial pool must survive");
    }

    #[test]
    fn pause_and_resume_round_trips_async_run() {
        let mut cfg = AgentConfig::tiny(8, 0.5);
        cfg.total_steps = 200;
        let token = CancelToken::new();
        token.pause();
        let handle = {
            let token = token.clone();
            let cfg = cfg.clone();
            std::thread::spawn(move || {
                run_async(
                    0,
                    &cfg,
                    Arc::new(Adder),
                    Arc::new(TaskEvaluator::analytical(Adder)),
                    2,
                    &mut NullObserver,
                    &token,
                )
            })
        };
        // Paused before the first decision round: nothing may finish.
        std::thread::sleep(std::time::Duration::from_millis(150));
        assert!(!handle.is_finished(), "paused actors must block");
        token.resume();
        let record = handle.join().expect("run completes after resume");
        assert_eq!(record.steps, 200);
    }

    fn mixed_graphs(n: u16) -> Vec<PrefixGraph> {
        vec![
            PrefixGraph::ripple(n),
            prefix_graph::structures::sklansky(n),
            prefix_graph::structures::kogge_stone(n),
            prefix_graph::structures::brent_kung(n),
            prefix_graph::structures::han_carlson(n),
        ]
    }

    #[test]
    fn evaluate_batch_matches_serial() {
        let graphs = mixed_graphs(8);
        let ev = TaskEvaluator::analytical(Adder);
        let parallel = evaluate_batch(&graphs, &ev, 4);
        let serial: Vec<ObjectivePoint> = graphs.iter().map(|g| ev.evaluate(g)).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn evaluate_batch_single_thread_ok() {
        let graphs = vec![PrefixGraph::ripple(8)];
        let out = evaluate_batch(&graphs, &TaskEvaluator::analytical(Adder), 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn evaluate_batch_empty_spawns_nothing() {
        let out = evaluate_batch(&[], &TaskEvaluator::analytical(Adder), 8);
        assert!(out.is_empty());
    }

    #[test]
    fn evaluate_batch_more_threads_than_graphs() {
        let graphs = mixed_graphs(8);
        let out = evaluate_batch(&graphs, &TaskEvaluator::analytical(Adder), 64);
        assert_eq!(out.len(), graphs.len());
        assert!(out.iter().all(|p| p.area.is_finite()));
    }

    /// Serve-shutdown audit (DESIGN.md §13): dropping an evaluator handle
    /// while a clone still has a batch in flight must neither hang nor
    /// lose results. `evaluate_batch` holds no threads or queues of its
    /// own — its workers are scoped to the call — so the in-flight batch
    /// completes on the clone and the drop is inert.
    #[test]
    fn drop_with_inflight_batch_completes() {
        struct Slow;
        impl Evaluator for Slow {
            fn evaluate(&self, graph: &PrefixGraph) -> ObjectivePoint {
                std::thread::sleep(std::time::Duration::from_millis(20));
                ObjectivePoint {
                    area: graph.size() as f64,
                    delay: graph.depth() as f64,
                }
            }
            fn name(&self) -> &str {
                "slow"
            }
        }
        let evaluator = Arc::new(CachedEvaluator::new(Slow));
        let clone = Arc::clone(&evaluator);
        let graphs = mixed_graphs(8);
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn({
            let graphs = graphs.clone();
            move || {
                let _ = tx.send(evaluate_batch(&graphs, &*clone, 4));
            }
        });
        drop(evaluator); // the original handle dies mid-batch
        let results = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("in-flight batch lost after handle drop");
        worker.join().unwrap();
        assert_eq!(results.len(), graphs.len());
        assert!(results.iter().all(|p| p.area.is_finite()));
    }

    #[test]
    fn evaluate_batch_shares_cache_across_calls() {
        let cache = CachedEvaluator::new(TaskEvaluator::analytical(Adder));
        let graphs = mixed_graphs(8);
        let first = evaluate_batch(&graphs, &cache, 4);
        let second = evaluate_batch(&graphs, &cache, 4);
        assert_eq!(first, second);
        assert_eq!(cache.store().misses(), graphs.len() as u64);
        assert!(cache.store().hits() >= graphs.len() as u64);
    }
}
