//! The PrefixRL training loop.
//!
//! One agent is trained per scalarization weight `w`; the paper trains 15
//! agents with `w_area ∈ [0.10, 0.99]` and assembles the Pareto frontier
//! from the designs they discover. Every state visited during training is
//! harvested into the design pool (with its evaluated objectives), which is
//! what experiment reports and the `claims` bench bin into fronts.
//!
//! The loop itself lives in [`TrainLoop`], a resumable state machine that
//! steps `cfg.actors` environments per round (paper Section IV-D: DQN is
//! off-policy, so experience generation runs in parallel). Each round has
//! four phases:
//!
//! 1. the coordinator (the calling thread) draws every exploration coin and
//!    random action from the run's one RNG, in actor order, and picks the
//!    greedy actions with one batched forward of the online network;
//! 2. the actors step and score their environments at once, each on its
//!    own thread (see `parallel::lockstep`), raising their own
//!    [`Event::Step`]s;
//! 3. the coordinator records the designs and pushes the transitions in
//!    actor order, training one gradient step whenever the global step
//!    index is a multiple of `train_every`;
//! 4. the coordinator resets the truncated environments.
//!
//! With one actor this is the classic serial step (act, step, push,
//! train, reset), run on the calling thread. At any actor count the run is
//! deterministic — the actors touch neither the RNG nor the replay buffer
//! nor the network — and it streams [`crate::experiment::Event`]s to a
//! [`RunObserver`] and snapshots into a [`Checkpoint`] at round boundaries
//! such that a resumed run is bit-identical to an uninterrupted one.
//! Sessions of one or more agents go through
//! [`crate::experiment::Experiment`].

use crate::checkpoint::{ActorState, Checkpoint};
use crate::env::{EnvConfig, PrefixEnv, StepOutcome};
use crate::evaluator::{Evaluator, ObjectivePoint};
use crate::experiment::{Event, NullObserver, RunObserver, RunRecord};
use crate::parallel::{self, Lockstep};
use crate::qnet::{PrefixQNet, QNetConfig};
use crate::task::{self, CircuitTask};
use parking_lot::Mutex;
use prefix_graph::PrefixGraph;
use rand::prelude::*;
use rl::{DoubleDqn, DqnConfig, EpsilonSchedule, ReplayBuffer, Transition};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Full configuration of one PrefixRL agent.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AgentConfig {
    /// Environment settings.
    pub env: EnvConfig,
    /// Q-network settings.
    pub qnet: QNetConfig,
    /// Double-DQN settings (includes the scalarization weight).
    pub dqn: DqnConfig,
    /// Total environment steps, across all actors.
    pub total_steps: u64,
    /// Replay buffer capacity (paper: 4×10⁵).
    pub replay_capacity: usize,
    /// Exploration start ε.
    pub eps_start: f64,
    /// Exploration end ε (annealed to ~0 as in the paper).
    pub eps_end: f64,
    /// Steps over which ε anneals.
    pub eps_decay_steps: u64,
    /// Environment steps per gradient step (0: never train), counted on
    /// the global step index whatever the actor count.
    pub train_every: u64,
    /// Actors, each stepping one environment on its own thread per round
    /// (1: the calling thread steps the only environment).
    pub actors: usize,
    /// Master seed.
    pub seed: u64,
}

impl AgentConfig {
    /// A minimal configuration for unit tests (analytical reward scale).
    pub fn tiny(n: u16, w_area: f32) -> Self {
        AgentConfig {
            env: EnvConfig::analytical(n),
            qnet: QNetConfig::tiny(n),
            dqn: DqnConfig {
                batch_size: 16,
                min_replay: 64,
                ..DqnConfig::paper(w_area)
            },
            total_steps: 300,
            replay_capacity: 4_000,
            eps_start: 1.0,
            eps_end: 0.05,
            eps_decay_steps: 200,
            train_every: 1,
            actors: 1,
            seed: 0,
        }
    }

    /// A CPU-tractable experiment configuration.
    pub fn small(n: u16, w_area: f32, total_steps: u64) -> Self {
        AgentConfig {
            env: EnvConfig::analytical(n),
            qnet: QNetConfig::small(n),
            dqn: DqnConfig {
                batch_size: 16,
                min_replay: 200,
                ..DqnConfig::paper(w_area)
            },
            total_steps,
            replay_capacity: 20_000,
            eps_start: 1.0,
            eps_end: 0.02,
            eps_decay_steps: total_steps * 3 / 4,
            train_every: 1,
            actors: 1,
            seed: 0,
        }
    }

    /// The paper's full-scale configuration (5×10⁵ steps, B=32, C=256,
    /// replay 4×10⁵, Adam 4e-5) — constructible but sized for a cluster.
    pub fn paper(n: u16, w_area: f32) -> Self {
        AgentConfig {
            env: EnvConfig::synthesis(n),
            qnet: QNetConfig::paper(n),
            dqn: DqnConfig::paper(w_area),
            total_steps: 500_000,
            replay_capacity: 400_000,
            eps_start: 1.0,
            eps_end: 0.0,
            eps_decay_steps: 400_000,
            train_every: 1,
            actors: 1,
            seed: 0,
        }
    }
}

/// One actor: its environment and the return of its running episode.
struct Actor {
    env: PrefixEnv,
    episode_return: f64,
}

/// An actor handed to its thread for one step.
struct Move {
    actor: Actor,
    action: usize,
    step: u64,
    epsilon: f64,
}

/// The actor threads of one [`TrainLoop::run_rounds`] call: moves in,
/// actors with their step's outcome back.
type ActorPool<'w> = Lockstep<'w, Move, (Actor, StepOutcome)>;

/// Phase 2 of a round, on the actor's own thread: steps and scores its
/// environment and raises the step's [`Event::Step`].
fn step_actor(
    run: usize,
    weight: [f32; 2],
    observer: &Mutex<&mut dyn RunObserver>,
    m: Move,
) -> (Actor, StepOutcome) {
    let Move {
        mut actor,
        action,
        step,
        epsilon,
    } = m;
    let outcome = actor.env.step_flat(action);
    actor.episode_return += (weight[0] * outcome.reward[0] + weight[1] * outcome.reward[1]) as f64;
    observer.lock().on_event(
        run,
        &Event::Step {
            step,
            epsilon,
            reward: outcome.reward,
        },
    );
    (actor, outcome)
}

/// The PrefixRL training loop as a resumable state machine.
///
/// Owns everything one agent's run needs — the actors' environments,
/// Double-DQN, replay buffer, ε-schedule position, RNG, and the harvested
/// design pool — and advances one round of `cfg.actors` environment steps
/// at a time (see the module docs). The whole state snapshots into a
/// [`Checkpoint`] between rounds, and [`TrainLoop::from_checkpoint`]
/// rebuilds it such that the continued run is bit-identical to one that
/// never stopped.
pub struct TrainLoop {
    cfg: AgentConfig,
    actors: Vec<Actor>,
    dqn: DoubleDqn<PrefixQNet>,
    replay: ReplayBuffer,
    schedule: EpsilonSchedule,
    rng: StdRng,
    /// Canonical key → design; `BTreeMap` so result order is deterministic.
    designs: BTreeMap<Vec<u64>, (PrefixGraph, ObjectivePoint)>,
    losses: Vec<f32>,
    episode_returns: Vec<f64>,
    step: u64,
    /// Set until the start states have been announced to an observer (the
    /// constructor has none to emit `DesignFound` to).
    pending_initial_record: bool,
}

impl TrainLoop {
    /// Initializes a fresh run: seeds the RNG, builds online/target
    /// networks, resets every actor's environment, and records the start
    /// states. The circuit task is resolved from `cfg.env.task` through
    /// the built-in registry (panics on an unknown id); custom tasks go
    /// through [`TrainLoop::with_task`].
    pub fn new(cfg: &AgentConfig, evaluator: Arc<dyn Evaluator>) -> Self {
        let task = task::by_name(&cfg.env.task).unwrap_or_else(|| {
            panic!(
                "unknown task `{}` (registered: {:?})",
                cfg.env.task,
                task::TASK_NAMES
            )
        });
        Self::with_task(cfg, task, evaluator)
    }

    /// Initializes a fresh run over an explicit (possibly custom) circuit
    /// task; `cfg.env.task` is overwritten with the task's id so
    /// checkpoints record it.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.actors` is 0.
    pub fn with_task(
        cfg: &AgentConfig,
        task: Arc<dyn CircuitTask>,
        evaluator: Arc<dyn Evaluator>,
    ) -> Self {
        let mut lp = Self::build(cfg.clone(), task, evaluator);
        for actor in &mut lp.actors {
            actor.env.reset(&mut lp.rng);
        }
        lp
    }

    /// The loop of `cfg` before any reset: seeded RNG, fresh networks and
    /// replay, and one environment per actor at the task's first start
    /// state.
    fn build(
        mut cfg: AgentConfig,
        task: Arc<dyn CircuitTask>,
        evaluator: Arc<dyn Evaluator>,
    ) -> Self {
        assert!(cfg.actors > 0, "need at least one actor");
        let actors: Vec<Actor> = (0..cfg.actors)
            .map(|_| Actor {
                env: PrefixEnv::with_task(
                    cfg.env.clone(),
                    Arc::clone(&task),
                    Arc::clone(&evaluator),
                ),
                episode_return: 0.0,
            })
            .collect();
        // The environment resolved (and possibly rewrote) the task id;
        // keep the checkpointed config in sync with it.
        cfg.env = actors[0].env.config().clone();
        let online = PrefixQNet::new(&cfg.qnet);
        let target = PrefixQNet::new(&QNetConfig {
            seed: cfg.qnet.seed ^ 0x5eed,
            ..cfg.qnet.clone()
        });
        TrainLoop {
            dqn: DoubleDqn::new(online, target, cfg.dqn.clone()),
            replay: ReplayBuffer::new(cfg.replay_capacity),
            schedule: EpsilonSchedule::linear(cfg.eps_start, cfg.eps_end, cfg.eps_decay_steps),
            rng: StdRng::seed_from_u64(cfg.seed),
            actors,
            designs: BTreeMap::new(),
            losses: Vec::new(),
            episode_returns: Vec::new(),
            step: 0,
            pending_initial_record: true,
            cfg,
        }
    }

    /// Rebuilds a loop from a [`Checkpoint`] so that continuing produces
    /// bit-identical losses and designs to the uninterrupted run. The
    /// checkpoint's recorded task is resolved through the built-in
    /// registry.
    ///
    /// # Errors
    ///
    /// Fails if the checkpoint's task id is not registered, or on
    /// architecture mismatch between the checkpoint and the network built
    /// from its own config (corrupt checkpoint).
    pub fn from_checkpoint(
        ckpt: &Checkpoint,
        evaluator: Arc<dyn Evaluator>,
    ) -> Result<Self, String> {
        let task = task::by_name(&ckpt.cfg.env.task).ok_or_else(|| {
            format!(
                "checkpoint records unknown task `{}` (registered: {:?})",
                ckpt.cfg.env.task,
                task::TASK_NAMES
            )
        })?;
        Self::from_checkpoint_with_task(ckpt, task, evaluator)
    }

    /// Rebuilds a loop from a [`Checkpoint`] over an explicit task,
    /// refusing a task mismatch — resuming an adder checkpoint as a
    /// prefix-OR run would silently train on the wrong rewards.
    ///
    /// # Errors
    ///
    /// Fails if `task` does not match the checkpoint's recorded task, or
    /// on architecture mismatch (corrupt checkpoint).
    pub fn from_checkpoint_with_task(
        ckpt: &Checkpoint,
        task: Arc<dyn CircuitTask>,
        evaluator: Arc<dyn Evaluator>,
    ) -> Result<Self, String> {
        if task.task_id() != ckpt.cfg.env.task {
            return Err(format!(
                "checkpoint task mismatch: checkpoint was trained on task `{}`, \
                 resume requested task `{}`",
                ckpt.cfg.env.task,
                task.task_id()
            ));
        }
        let mut lp = Self::build(ckpt.cfg.clone(), task, evaluator);
        for (actor, state) in lp.actors.iter_mut().zip(&ckpt.actors) {
            actor.env.restore(state.graph.clone(), state.steps as usize);
            actor.episode_return = state.episode_return;
        }
        lp.dqn.load_state_snapshot(&ckpt.trainer)?;
        lp.dqn.online_mut().load_opt_state(&ckpt.opt)?;
        lp.replay = ckpt.replay.clone();
        lp.rng = StdRng::from_state(ckpt.rng);
        for (g, p) in &ckpt.designs {
            lp.designs.insert(g.canonical_key(), (g.clone(), *p));
        }
        lp.losses = ckpt.losses.clone();
        lp.episode_returns = ckpt.episode_returns.clone();
        lp.step = ckpt.step;
        lp.pending_initial_record = false;
        Ok(lp)
    }

    /// Snapshots the complete loop state between rounds.
    pub fn checkpoint(&mut self) -> Checkpoint {
        if self.pending_initial_record {
            // Checkpointing before any round: fold the start states into
            // the pool silently so the snapshot is self-contained.
            for actor in &self.actors {
                Self::record(&mut self.designs, &actor.env);
            }
            self.pending_initial_record = false;
        }
        let trainer = self.dqn.save_state();
        let net_digest = nn::serialize::digest(&trainer.online);
        Checkpoint {
            version: Checkpoint::FORMAT_VERSION,
            cfg: self.cfg.clone(),
            step: self.step,
            trainer,
            opt: self.dqn.online_mut().opt_state(),
            replay: self.replay.clone(),
            rng: self.rng.state(),
            actors: self
                .actors
                .iter()
                .map(|a| ActorState {
                    graph: a.env.graph().clone(),
                    steps: a.env.steps() as u64,
                    episode_return: a.episode_return,
                })
                .collect(),
            designs: self.designs.values().cloned().collect(),
            losses: self.losses.clone(),
            episode_returns: self.episode_returns.clone(),
            net_digest,
        }
    }

    /// Convenience: trains a fresh agent to completion unobserved, as run
    /// 0. Sweeps and observed runs should go through
    /// [`crate::experiment::Experiment`].
    pub fn run(cfg: &AgentConfig, evaluator: Arc<dyn Evaluator>) -> RunRecord {
        let mut lp = TrainLoop::new(cfg, evaluator);
        lp.run_to_completion(0, &mut NullObserver);
        lp.into_parts(0).1
    }

    /// Environment steps executed so far.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Whether the step budget is exhausted.
    pub fn is_done(&self) -> bool {
        self.step >= self.cfg.total_steps
    }

    /// The agent configuration this loop runs.
    pub fn config(&self) -> &AgentConfig {
        &self.cfg
    }

    /// Runs rounds under run id `run`, streaming events to `observer`,
    /// until the step budget is exhausted or `proceed` returns `false`.
    /// `proceed` is asked before every round, at a round boundary — where
    /// the loop can be checkpointed and where cancel is polled.
    /// The actor threads live for the duration of this call.
    pub fn run_rounds(
        &mut self,
        run: usize,
        observer: &mut dyn RunObserver,
        mut proceed: impl FnMut(&mut TrainLoop, &mut dyn RunObserver) -> bool,
    ) {
        let observer = Mutex::new(observer);
        let weight = self.cfg.dqn.weight;
        let work = |_: usize, m: Move| step_actor(run, weight, &observer, m);
        parallel::lockstep(self.cfg.actors, work, |pool| {
            while !self.is_done() {
                let go = proceed(self, &mut **observer.lock());
                if !go {
                    break;
                }
                self.round(run, pool, &observer);
            }
        });
    }

    /// Runs until the step budget is exhausted.
    pub fn run_to_completion(&mut self, run: usize, observer: &mut dyn RunObserver) {
        self.run_rounds(run, observer, |_, _| true);
    }

    /// Executes one round (see the module docs), streaming events to
    /// `observer` under run id `run`. Returns `false` once the step budget
    /// is exhausted (no step executed). With more than one actor each call
    /// starts and joins the actor threads; drive whole runs through
    /// [`TrainLoop::run_rounds`].
    pub fn step_round(&mut self, run: usize, observer: &mut dyn RunObserver) -> bool {
        let before = self.step;
        let mut first = true;
        self.run_rounds(run, observer, |_, _| std::mem::take(&mut first));
        self.step > before
    }

    fn round(
        &mut self,
        run: usize,
        pool: &mut ActorPool<'_>,
        observer: &Mutex<&mut dyn RunObserver>,
    ) {
        let start = self.step;
        let count = (self.cfg.total_steps - start).min(self.actors.len() as u64) as usize;
        if self.pending_initial_record {
            let mut observer = observer.lock();
            for i in 0..self.actors.len() {
                self.record_observed(i, start, run, &mut **observer);
            }
            self.pending_initial_record = false;
        }

        // Phase 1: every random draw and the greedy forward, in actor order
        // (one ε per round, at its first step index).
        let epsilon = self.schedule.value(start);
        let active = &self.actors[..count];
        let states: Vec<Vec<f32>> = active.iter().map(|a| a.env.features()).collect();
        let masks: Vec<Vec<bool>> = active.iter().map(|a| a.env.action_mask()).collect();
        let state_refs: Vec<&[f32]> = states.iter().map(Vec::as_slice).collect();
        let mask_refs: Vec<&[bool]> = masks.iter().map(Vec::as_slice).collect();
        let actions: Vec<usize> = self
            .dqn
            .act(&state_refs, &mask_refs, epsilon, &mut self.rng)
            .into_iter()
            .map(|a| a.expect("prefix env always has a legal action"))
            .collect();

        // Phase 2: the actors step their environments at once.
        let idle = self.actors.split_off(count);
        let moves = std::mem::take(&mut self.actors)
            .into_iter()
            .zip(&actions)
            .enumerate()
            .map(|(i, (actor, &action))| Move {
                actor,
                action,
                step: start + i as u64,
                epsilon,
            })
            .collect();
        let stepped = pool.round(moves);

        // Phase 3: designs, transitions and gradient steps, in actor order.
        let mut observer = observer.lock();
        let mut truncated = Vec::with_capacity(count);
        let results = states.into_iter().zip(actions).zip(stepped);
        for (i, ((state, action), (actor, outcome))) in results.enumerate() {
            let step = start + i as u64;
            self.replay.push(Transition {
                state,
                action,
                reward: outcome.reward,
                next_state: actor.env.features(),
                next_mask: actor.env.action_mask(),
                done: false, // no terminal states; truncation bootstraps
            });
            self.actors.push(actor);
            self.record_observed(i, step, run, &mut **observer);
            if self.cfg.train_every > 0 && step.is_multiple_of(self.cfg.train_every) {
                if let Some(loss) = self.dqn.train_step(&self.replay, &mut self.rng) {
                    self.losses.push(loss);
                    observer.on_event(
                        run,
                        &Event::GradStep {
                            grad_step: self.losses.len() as u64,
                            loss,
                        },
                    );
                }
            }
            truncated.push(outcome.truncated);
        }
        self.actors.extend(idle);

        // Phase 4: resets of the truncated environments, in actor order.
        for (i, _) in truncated.iter().enumerate().filter(|(_, &t)| t) {
            let actor = &mut self.actors[i];
            self.episode_returns.push(actor.episode_return);
            observer.on_event(
                run,
                &Event::EpisodeEnd {
                    episode: self.episode_returns.len(),
                    scalarized_return: actor.episode_return,
                },
            );
            actor.episode_return = 0.0;
            actor.env.reset(&mut self.rng);
            self.record_observed(i, start + i as u64, run, &mut **observer);
        }
        self.step = start + count as u64;
    }

    /// Consumes the loop, yielding the trainer and the record of run `run`.
    pub fn into_parts(mut self, run: usize) -> (DoubleDqn<PrefixQNet>, RunRecord) {
        if self.pending_initial_record {
            for actor in &self.actors {
                Self::record(&mut self.designs, &actor.env);
            }
        }
        let record = RunRecord {
            run,
            w_area: self.cfg.dqn.weight[0] as f64,
            steps: self.step,
            designs: self.designs.into_values().collect(),
            losses: self.losses,
            episode_returns: self.episode_returns,
        };
        (self.dqn, record)
    }

    fn record(
        designs: &mut BTreeMap<Vec<u64>, (PrefixGraph, ObjectivePoint)>,
        env: &PrefixEnv,
    ) -> bool {
        let key = env.graph().canonical_key();
        if designs.contains_key(&key) {
            return false;
        }
        designs.insert(key, (env.graph().clone(), env.metrics()));
        true
    }

    /// Records actor `i`'s current state, announcing it if new as found
    /// at step index `step`.
    fn record_observed(&mut self, i: usize, step: u64, run: usize, observer: &mut dyn RunObserver) {
        let env = &self.actors[i].env;
        if Self::record(&mut self.designs, env) {
            observer.on_event(
                run,
                &Event::DesignFound {
                    step,
                    point: env.metrics(),
                    size: env.graph().size(),
                    depth: env.graph().depth() as usize,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CachedEvaluator;
    use crate::task::{by_name, Adder, PrefixOr, TaskEvaluator};

    fn run(cfg: &AgentConfig, evaluator: Arc<dyn Evaluator>) -> RunRecord {
        TrainLoop::run(cfg, evaluator)
    }

    #[test]
    fn tiny_training_run_completes_and_harvests_designs() {
        let cfg = AgentConfig::tiny(8, 0.5);
        let eval = Arc::new(CachedEvaluator::new(TaskEvaluator::analytical(Adder)));
        let result = run(&cfg, eval.clone());
        assert_eq!(result.steps, 300);
        assert!(
            result.designs.len() > 20,
            "only {} designs",
            result.designs.len()
        );
        assert!(!result.losses.is_empty(), "training never started");
        // The cache must have seen repeated states (start states recur).
        assert!(eval.store().hits() > 0);
        // All harvested designs are legal.
        for (g, p) in &result.designs {
            g.verify_legal().unwrap();
            assert!(p.area > 0.0 && p.delay > 0.0);
        }
    }

    #[test]
    fn front_is_nonempty_and_consistent() {
        let cfg = AgentConfig::tiny(8, 0.3);
        let result = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
        let front = result.front();
        assert!(!front.is_empty());
        // No design may dominate a front member.
        for (p, _) in front.iter() {
            for (_, q) in &result.designs {
                assert!(!q.dominates(p), "front member dominated");
            }
        }
    }

    #[test]
    fn training_is_deterministic_under_seed() {
        let cfg = AgentConfig::tiny(8, 0.5);
        let a = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
        let b = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
        assert_eq!(a.designs.len(), b.designs.len());
        assert_eq!(a.losses, b.losses);
        // BTreeMap-backed pools make the design ordering itself stable.
        for ((ga, pa), (gb, pb)) in a.designs.iter().zip(&b.designs) {
            assert_eq!(ga.canonical_key(), gb.canonical_key());
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn checkpoint_records_task_and_refuses_mismatch() {
        let cfg = AgentConfig::tiny(8, 0.5);
        let or_eval: Arc<dyn Evaluator> = Arc::new(TaskEvaluator::analytical(PrefixOr));
        let mut lp = TrainLoop::with_task(&cfg, by_name("prefix-or").unwrap(), or_eval.clone());
        for _ in 0..20 {
            lp.step_round(0, &mut NullObserver);
        }
        let ckpt = lp.checkpoint();
        assert_eq!(ckpt.cfg.env.task, "prefix-or");
        // Matching task resumes fine…
        assert!(TrainLoop::from_checkpoint_with_task(
            &ckpt,
            by_name("prefix-or").unwrap(),
            or_eval
        )
        .is_ok());
        // …a different task is refused loudly.
        let err = TrainLoop::from_checkpoint_with_task(
            &ckpt,
            Arc::new(Adder),
            Arc::new(TaskEvaluator::analytical(Adder)),
        )
        .err()
        .expect("mismatch must fail");
        assert!(err.contains("task mismatch"), "{err}");
        assert!(err.contains("prefix-or") && err.contains("adder"), "{err}");
    }

    #[test]
    fn best_scalarized_tracks_weight() {
        let cfg = AgentConfig::tiny(8, 0.5);
        let result = run(&cfg, Arc::new(TaskEvaluator::analytical(Adder)));
        let small = result.best_scalarized(1.0, 1.0, 1.0).unwrap();
        let fast = result.best_scalarized(0.0, 1.0, 1.0).unwrap();
        assert!(small.1.area <= fast.1.area);
        assert!(fast.1.delay <= small.1.delay);
    }
}
