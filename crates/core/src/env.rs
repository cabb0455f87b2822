//! The PrefixRL MDP (paper Section IV-A/B).
//!
//! States are legal `N`-input prefix graphs; actions add or delete a node at
//! an interior grid position (legalization keeps the graph legal); the
//! reward is the scaled decrease in evaluated `(area, delay)`:
//!
//! ```text
//! r_t = [c_area·(area(s_t) − area(s_{t+1})),  c_delay·(delay(s_t) − delay(s_{t+1}))]
//! ```
//!
//! Episodes start from the ripple-carry or Sklansky graph (minimum node
//! count and minimum level count respectively) chosen at random, and
//! truncate after a step budget. There are no terminal states — truncation
//! bootstraps.

use crate::evaluator::{Evaluator, ObjectivePoint};
use crate::task::CircuitTask;
use prefix_graph::{features, Action, ActionKind, Node, PrefixGraph};
use rand::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Episode starting-state policy, indexing the task's
/// [`CircuitTask::start_states`] set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StartState {
    /// Always the first start state (ripple-carry for the built-in tasks).
    Ripple,
    /// Always the second start state (Sklansky for the built-in tasks).
    Sklansky,
    /// Uniformly one of the first two (the paper's setting).
    RippleOrSklansky,
}

/// Environment configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EnvConfig {
    /// Input width `N`.
    pub n: u16,
    /// Steps per episode before truncation.
    pub max_steps: usize,
    /// Area scaling constant (paper: 0.001 µm⁻² for synthesis).
    pub c_area: f64,
    /// Delay scaling constant (paper: 10 ns⁻¹ for synthesis).
    pub c_delay: f64,
    /// Starting-state policy.
    pub start: StartState,
    /// The circuit task's stable id ([`CircuitTask::task_id`]), set from
    /// the evaluator's task. Recorded in checkpoints; resume refuses a
    /// mismatch.
    pub task: String,
}

impl EnvConfig {
    /// The paper's synthesis-reward configuration (adder task).
    pub fn synthesis(n: u16) -> Self {
        EnvConfig {
            n,
            max_steps: 2 * n as usize,
            c_area: 0.001,
            c_delay: 10.0,
            start: StartState::RippleOrSklansky,
            task: "adder".to_string(),
        }
    }

    /// Scaling suited to the analytical model's units (areas of tens of
    /// nodes, delays of tens of units); adder task.
    pub fn analytical(n: u16) -> Self {
        EnvConfig {
            n,
            max_steps: 2 * n as usize,
            c_area: 0.05,
            c_delay: 0.25,
            start: StartState::RippleOrSklansky,
            task: "adder".to_string(),
        }
    }
}

/// Result of one environment step.
#[derive(Clone, Copy, Debug)]
pub struct StepOutcome {
    /// Scaled reward vector `[r_area, r_delay]`.
    pub reward: [f32; 2],
    /// Whether the episode hit its step budget (truncation, not terminal).
    pub truncated: bool,
}

/// Flat action-index helpers: `a = kind·N² + msb·N + lsb` with
/// kind 0 = add, 1 = delete, matching the Q-network's output channels.
pub fn flat_to_action(n: u16, flat: usize) -> Action {
    let nn = n as usize * n as usize;
    let kind = flat / nn;
    let pos = flat % nn;
    let node = Node::new((pos / n as usize) as u16, (pos % n as usize) as u16);
    match kind {
        0 => Action::Add(node),
        1 => Action::Delete(node),
        _ => panic!("flat action {flat} out of range for n={n}"),
    }
}

/// Inverse of [`flat_to_action`].
pub fn action_to_flat(n: u16, action: Action) -> usize {
    let nn = n as usize * n as usize;
    let node = action.node();
    let pos = node.msb() as usize * n as usize + node.lsb() as usize;
    match action.kind() {
        ActionKind::Add => pos,
        ActionKind::Delete => nn + pos,
    }
}

/// Appends `graph`'s legal-action mask over the flat `2·N²` action space
/// (adds, then deletes) to `mask`.
fn push_action_mask(graph: &PrefixGraph, mask: &mut Vec<bool>) {
    let (add, del) = graph.action_masks();
    mask.extend_from_slice(&add);
    mask.extend_from_slice(&del);
}

/// The replay decoder `DoubleDqn::train_step` takes: rebuilds the graph
/// whose canonical key is `key` (the state keys `rl::Transition` stores),
/// appends its features to `features` and, when asked, its flat
/// legal-action mask to `mask` — what [`PrefixEnv::features`] and
/// [`PrefixEnv::action_mask`] gave in that state.
///
/// # Panics
///
/// Panics on words that are no legal graph's key; checkpoints decode every
/// replay key when they load, so a corrupt file fails there instead.
pub fn decode_state(key: &[u64], features: &mut Vec<f32>, mask: Option<&mut Vec<bool>>) {
    let graph = PrefixGraph::from_canonical_key(key)
        .unwrap_or_else(|e| panic!("replay key does not decode: {e}"));
    let start = features.len();
    let n = graph.n() as usize;
    features.resize(start + features::CHANNELS * n * n, 0.0);
    features::extract_into(&graph, &mut features[start..]);
    if let Some(mask) = mask {
        push_action_mask(&graph, mask);
    }
}

/// The PrefixRL environment.
pub struct PrefixEnv {
    cfg: EnvConfig,
    evaluator: Arc<Evaluator>,
    graph: PrefixGraph,
    metrics: ObjectivePoint,
    steps: usize,
}

impl PrefixEnv {
    /// Creates an environment over the evaluator's circuit task;
    /// `cfg.task` is overwritten with the task's id so checkpoints record
    /// it. The first episode starts from the task's first start state
    /// until [`PrefixEnv::reset`] is called.
    pub fn new(mut cfg: EnvConfig, evaluator: Arc<Evaluator>) -> Self {
        cfg.task = evaluator.task().task_id().to_string();
        let graph = evaluator
            .task()
            .start_states(cfg.n)
            .into_iter()
            .next()
            .expect("task must provide at least one start state");
        let metrics = evaluator.evaluate(&graph);
        PrefixEnv {
            cfg,
            evaluator,
            graph,
            metrics,
            steps: 0,
        }
    }

    /// Starts a new episode per the starting-state policy, drawing from
    /// the task's start-state set.
    pub fn reset(&mut self, rng: &mut StdRng) {
        let pool = self.task().start_states(self.cfg.n);
        assert!(!pool.is_empty(), "task must provide a start state");
        let second = 1.min(pool.len() - 1);
        let idx = match self.cfg.start {
            StartState::Ripple => 0,
            StartState::Sklansky => second,
            // One bool draw, matching the historical two-state behaviour
            // exactly (bit-identical resume relies on this RNG schedule).
            StartState::RippleOrSklansky => {
                if rng.random::<bool>() {
                    0
                } else {
                    second
                }
            }
        };
        self.graph = pool.into_iter().nth(idx).expect("index in range");
        self.metrics = self.evaluator.evaluate(&self.graph);
        self.steps = 0;
    }

    /// The current state's feature tensor (flattened `[4, N, N]`).
    pub fn features(&self) -> Vec<f32> {
        features::extract(&self.graph)
    }

    /// Legal-action mask over the flat `2·N²` action space.
    pub fn action_mask(&self) -> Vec<bool> {
        let mut mask = Vec::new();
        push_action_mask(&self.graph, &mut mask);
        mask
    }

    /// Applies a flat action index.
    ///
    /// # Panics
    ///
    /// Panics if the action is illegal in the current state (the agent
    /// must mask) or out of range.
    pub fn step_flat(&mut self, flat: usize) -> StepOutcome {
        self.step(flat_to_action(self.cfg.n, flat))
    }

    /// Applies an action, returning the scaled reward vector (Fig. 1).
    ///
    /// # Panics
    ///
    /// Panics if the action is illegal (callers must respect the mask).
    pub fn step(&mut self, action: Action) -> StepOutcome {
        self.graph
            .apply(action)
            .unwrap_or_else(|e| panic!("illegal action {action}: {e}"));
        let next = self.evaluator.evaluate(&self.graph);
        let reward = [
            (self.cfg.c_area * (self.metrics.area - next.area)) as f32,
            (self.cfg.c_delay * (self.metrics.delay - next.delay)) as f32,
        ];
        self.metrics = next;
        self.steps += 1;
        StepOutcome {
            reward,
            truncated: self.steps >= self.cfg.max_steps,
        }
    }

    /// Restores a checkpointed mid-episode state: `graph` with `steps`
    /// episode steps already taken. Metrics are re-evaluated — evaluators
    /// are deterministic, so this reproduces the captured state exactly.
    pub fn restore(&mut self, graph: PrefixGraph, steps: usize) {
        self.metrics = self.evaluator.evaluate(&graph);
        self.graph = graph;
        self.steps = steps;
    }

    /// The current prefix graph.
    pub fn graph(&self) -> &PrefixGraph {
        &self.graph
    }

    /// The circuit task this environment optimizes.
    pub fn task(&self) -> &Arc<dyn CircuitTask> {
        self.evaluator.task()
    }

    /// The current state's evaluated objectives.
    pub fn metrics(&self) -> ObjectivePoint {
        self.metrics
    }

    /// Steps taken in the current episode.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// The environment configuration.
    pub fn config(&self) -> &EnvConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Adder, PrefixOr};

    fn env(n: u16) -> PrefixEnv {
        PrefixEnv::new(
            EnvConfig::analytical(n),
            Arc::new(Evaluator::analytical(Adder)),
        )
    }

    #[test]
    fn flat_action_roundtrip() {
        let n = 8;
        for kind in [ActionKind::Add, ActionKind::Delete] {
            for m in 2..n {
                for l in 1..m {
                    let a = match kind {
                        ActionKind::Add => Action::Add(Node::new(m, l)),
                        ActionKind::Delete => Action::Delete(Node::new(m, l)),
                    };
                    assert_eq!(flat_to_action(n, action_to_flat(n, a)), a);
                }
            }
        }
    }

    #[test]
    fn mask_matches_legal_actions() {
        let mut e = env(8);
        let mut rng = StdRng::seed_from_u64(0);
        e.reset(&mut rng);
        let mask = e.action_mask();
        let legal: Vec<usize> = e
            .graph()
            .legal_actions()
            .into_iter()
            .map(|a| action_to_flat(8, a))
            .collect();
        for (i, &m) in mask.iter().enumerate() {
            assert_eq!(m, legal.contains(&i), "mask mismatch at {i}");
        }
    }

    #[test]
    fn adding_node_gives_negative_area_reward() {
        let mut e = env(8);
        let flat = action_to_flat(8, Action::Add(Node::new(5, 2)));
        let out = e.step_flat(flat);
        assert!(out.reward[0] < 0.0, "area grew, reward must be negative");
        assert!(!out.truncated);
    }

    #[test]
    fn depth_shortcut_gives_positive_delay_reward() {
        let mut e = env(16);
        // A big shortcut on the deep ripple chain cuts delay.
        let out = e.step(Action::Add(Node::new(12, 4)));
        assert!(out.reward[1] > 0.0, "delay fell, reward must be positive");
    }

    #[test]
    fn truncation_after_max_steps() {
        let mut e = PrefixEnv::new(
            EnvConfig {
                max_steps: 3,
                ..EnvConfig::analytical(8)
            },
            Arc::new(Evaluator::analytical(Adder)),
        );
        let mut rng = StdRng::seed_from_u64(1);
        e.reset(&mut rng);
        let mut truncated = false;
        for _ in 0..3 {
            let mask = e.action_mask();
            let a = mask.iter().position(|&m| m).unwrap();
            truncated = e.step_flat(a).truncated;
        }
        assert!(truncated);
        assert_eq!(e.steps(), 3);
    }

    #[test]
    fn reset_uses_both_starting_states() {
        let mut e = env(8);
        let mut rng = StdRng::seed_from_u64(2);
        let mut sizes = std::collections::HashSet::new();
        for _ in 0..20 {
            e.reset(&mut rng);
            sizes.insert(e.graph().size());
        }
        // Ripple has 7 nodes, Sklansky 12 — both must occur.
        assert!(sizes.contains(&7) && sizes.contains(&12), "{sizes:?}");
    }

    #[test]
    #[should_panic(expected = "illegal action")]
    fn illegal_step_panics() {
        let mut e = env(8);
        // Deleting from ripple (empty minlist) is illegal.
        e.step(Action::Delete(Node::new(5, 2)));
    }

    #[test]
    fn config_task_follows_explicit_task() {
        let cfg = EnvConfig::analytical(8); // says "adder"
        let e = PrefixEnv::new(cfg, Arc::new(Evaluator::analytical(PrefixOr)));
        assert_eq!(e.config().task, "prefix-or");
        assert_eq!(e.task().task_id(), "prefix-or");
    }

    #[test]
    fn non_adder_tasks_step_identically() {
        // The MDP is task-independent: same graph state space, same
        // rewards under the (graph-level) analytical backend.
        let mut rng = StdRng::seed_from_u64(4);
        let mut e = PrefixEnv::new(
            EnvConfig::analytical(8),
            Arc::new(Evaluator::analytical(PrefixOr)),
        );
        e.reset(&mut rng);
        let mut adder = env(8);
        let mut rng2 = StdRng::seed_from_u64(4);
        adder.reset(&mut rng2);
        assert_eq!(e.graph().canonical_key(), adder.graph().canonical_key());
        let a = e.action_mask().iter().position(|&m| m).unwrap();
        let ra = e.step_flat(a);
        let rb = adder.step_flat(a);
        assert_eq!(ra.reward, rb.reward);
    }
}
