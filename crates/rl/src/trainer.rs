//! The scalarized Double-DQN trainer (paper Eq. 4–6).

use crate::policy::ScalarizedPolicy;
use crate::qnetwork::QNetwork;
use crate::replay::ReplayBuffer;
use nn::Scratch;
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// Hyper-parameters of the scalarized Double-DQN.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DqnConfig {
    /// Discount factor γ (the paper uses 0.75).
    pub gamma: f32,
    /// Mini-batch size per gradient step.
    pub batch_size: usize,
    /// Target-network sync period in gradient steps (the paper uses 60).
    pub target_sync_every: u64,
    /// Scalarization weight `w = [w_area, w_delay]`; nonnegative, sums to 1.
    pub weight: [f32; 2],
    /// Huber loss threshold.
    pub huber_delta: f32,
    /// Minimum transitions in replay before training starts.
    pub min_replay: usize,
}

impl DqnConfig {
    /// The paper's hyper-parameters for a given scalarization weight.
    pub fn paper(w_area: f32) -> Self {
        DqnConfig {
            gamma: 0.75,
            batch_size: 96,
            target_sync_every: 60,
            weight: [w_area, 1.0 - w_area],
            huber_delta: 1.0,
            min_replay: 500,
        }
    }
}

/// A serializable snapshot of a [`DoubleDqn`]'s learnable state: both
/// networks' parameters plus the gradient-step counter that drives target
/// synchronization.
///
/// Optimizer internals (e.g. Adam moments) live inside the concrete
/// [`QNetwork`] implementation and are checkpointed alongside this snapshot
/// by the caller (see `prefixrl_core::checkpoint`).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainerState {
    /// Online-network parameter tensors ([`QNetwork::state`] order).
    pub online: Vec<Vec<f32>>,
    /// Target-network parameter tensors.
    pub target: Vec<Vec<f32>>,
    /// Gradient steps taken (position in the target-sync cycle).
    pub grad_steps: u64,
}

/// Scalarized Double-DQN over a [`QNetwork`] pair (online + target).
///
/// Every action comes from [`DoubleDqn::act`], which delegates to the
/// shared [`ScalarizedPolicy`]; the bootstrap targets pick their next
/// action with the same [`ScalarizedPolicy::greedy_from_q`].
pub struct DoubleDqn<Q: QNetwork> {
    online: Q,
    target: Q,
    policy: ScalarizedPolicy,
    cfg: DqnConfig,
    grad_steps: u64,
    /// Arena for the trainer's inference passes (action selection,
    /// bootstrap targets) — reused every step, so the hot loop stops
    /// allocating.
    scratch: Scratch,
    /// A sampled batch's decoded states, reused every gradient step.
    batch: DecodedBatch,
}

/// The features and masks a gradient step decodes from its sampled keys.
#[derive(Default)]
struct DecodedBatch {
    states: Vec<f32>,
    next_states: Vec<f32>,
    next_masks: Vec<bool>,
}

impl<Q: QNetwork> DoubleDqn<Q> {
    /// Creates a trainer, synchronizing the target network to the online
    /// network's initial parameters.
    ///
    /// # Panics
    ///
    /// Panics if the two networks disagree on the action count, if the
    /// weight vector is not a convex combination, or if the architectures
    /// mismatch.
    pub fn new(mut online: Q, mut target: Q, cfg: DqnConfig) -> Self {
        assert_eq!(
            online.num_actions(),
            target.num_actions(),
            "online/target action spaces differ"
        );
        let policy = ScalarizedPolicy::new(cfg.weight);
        let s = online.state();
        target.load_state(&s).expect("architectures must match");
        DoubleDqn {
            online,
            target,
            policy,
            cfg,
            grad_steps: 0,
            scratch: Scratch::new(),
            batch: DecodedBatch::default(),
        }
    }

    /// The trainer configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.cfg
    }

    /// Gradient steps taken so far.
    pub fn grad_steps(&self) -> u64 {
        self.grad_steps
    }

    /// Mutable access to the online network (checkpointing, inspection).
    pub fn online_mut(&mut self) -> &mut Q {
        &mut self.online
    }

    /// Mutable access to the target network (checkpointing).
    pub fn target_mut(&mut self) -> &mut Q {
        &mut self.target
    }

    /// Snapshots both networks and the gradient-step counter.
    pub fn save_state(&mut self) -> TrainerState {
        TrainerState {
            online: self.online.state(),
            target: self.target.state(),
            grad_steps: self.grad_steps,
        }
    }

    /// Restores a snapshot captured by [`DoubleDqn::save_state`], resuming
    /// the target-sync cycle at the recorded gradient step.
    ///
    /// # Errors
    ///
    /// Fails on architecture mismatch.
    pub fn load_state_snapshot(&mut self, state: &TrainerState) -> Result<(), String> {
        self.online.load_state(&state.online)?;
        self.target.load_state(&state.target)?;
        self.grad_steps = state.grad_steps;
        Ok(())
    }

    /// ε-greedy acting for a batch of states against the online network,
    /// via the shared [`ScalarizedPolicy`] (Eq. 6 plus exploration): one
    /// forward over the states whose coins came up greedy (see
    /// [`ScalarizedPolicy::select_actions_with`]).
    pub fn act(
        &mut self,
        states: &[&[f32]],
        masks: &[&[bool]],
        epsilon: f64,
        rng: &mut StdRng,
    ) -> Vec<Option<usize>> {
        let (online, scratch) = (&self.online, &mut self.scratch);
        self.policy
            .select_actions_with(states, masks, epsilon, rng, |batch| {
                online.infer(batch, scratch)
            })
    }

    /// Copies the online parameters into the target network.
    pub fn sync_target(&mut self) {
        let s = self.online.state();
        self.target
            .load_state(&s)
            .expect("architectures must match");
    }

    /// Performs one Double-DQN gradient step from replay, returning the
    /// scalar Huber loss, or `None` while the buffer is below `min_replay`.
    ///
    /// `decode(key, features, mask)` rebuilds a stored state from its key:
    /// it appends the state's flattened features to `features` and, when
    /// `mask` is given (for next states), its legal-action mask over all
    /// [`QNetwork::num_actions`] actions. Every state of a batch must decode
    /// to features of one length. The buffers are the trainer's own and are
    /// reused across steps.
    ///
    /// # Panics
    ///
    /// Panics if `decode` appends a mask of the wrong length or features of
    /// unequal lengths.
    pub fn train_step(
        &mut self,
        replay: &ReplayBuffer,
        rng: &mut StdRng,
        mut decode: impl FnMut(&[u64], &mut Vec<f32>, Option<&mut Vec<bool>>),
    ) -> Option<f32> {
        if replay.len() < self.cfg.min_replay.max(1) {
            return None;
        }
        let batch = replay.sample(rng, self.cfg.batch_size);
        let num_actions = self.online.num_actions();
        let decoded = &mut self.batch;
        decoded.states.clear();
        decoded.next_states.clear();
        decoded.next_masks.clear();
        for t in &batch {
            decode(&t.state, &mut decoded.states, None);
            decode(
                &t.next_state,
                &mut decoded.next_states,
                Some(&mut decoded.next_masks),
            );
        }
        assert_eq!(
            decoded.next_masks.len(),
            batch.len() * num_actions,
            "decoded masks must cover every action"
        );
        let width = decoded.states.len() / batch.len();
        assert!(
            width > 0
                && decoded.states.len() == batch.len() * width
                && decoded.next_states.len() == batch.len() * width,
            "decoded states must share one feature length"
        );
        let next_states: Vec<&[f32]> = decoded.next_states.chunks_exact(width).collect();
        let next_masks = decoded.next_masks.chunks_exact(num_actions);
        // Double-DQN action selection: argmax of the *online* scalarized
        // Q over legal next actions…
        let next_q_online = self.online.infer(&next_states, &mut self.scratch);
        let a_star: Vec<Option<usize>> = batch
            .iter()
            .zip(next_masks)
            .zip(&next_q_online)
            .map(|((t, mask), q)| {
                if t.done {
                    return None;
                }
                self.policy.greedy_from_q(q, mask)
            })
            .collect();
        // …evaluated by the *target* network (Eq. 4), at that one action
        // of each sample that bootstraps.
        let (bootstrap_states, bootstrap_actions): (Vec<&[f32]>, Vec<usize>) = next_states
            .iter()
            .zip(&a_star)
            .filter_map(|(&s, a)| Some((s, (*a)?)))
            .unzip();
        let mut next_q_target = if bootstrap_actions.is_empty() {
            Vec::new()
        } else {
            self.target
                .infer_at(&bootstrap_states, &bootstrap_actions, &mut self.scratch)
        }
        .into_iter();
        let targets: Vec<[f32; 2]> = batch
            .iter()
            .zip(&a_star)
            .map(|(t, a)| {
                let mut y = t.reward;
                if a.is_some() {
                    let qt = next_q_target.next().expect("one value per bootstrap");
                    y[0] += self.cfg.gamma * qt[0];
                    y[1] += self.cfg.gamma * qt[1];
                }
                y
            })
            .collect();
        // Forward the current states for training and build the masked
        // Huber gradient at the taken actions only.
        let states: Vec<&[f32]> = decoded.states.chunks_exact(width).collect();
        let q_pred = self.online.forward(&states);
        let mut grad: Vec<Vec<[f32; 2]>> = vec![vec![[0.0; 2]; num_actions]; batch.len()];
        let mut loss = 0.0f64;
        let norm = (batch.len() * 2) as f32;
        for (b, (t, y)) in batch.iter().zip(&targets).enumerate() {
            for obj in 0..2 {
                let d = q_pred[b][t.action][obj] - y[obj];
                let delta = self.cfg.huber_delta;
                let (l, g) = if d.abs() <= delta {
                    (0.5 * d * d, d)
                } else {
                    (delta * (d.abs() - 0.5 * delta), delta * d.signum())
                };
                loss += l as f64;
                grad[b][t.action][obj] = g / norm;
            }
        }
        self.online.apply_gradient(&grad);
        self.grad_steps += 1;
        if self.grad_steps.is_multiple_of(self.cfg.target_sync_every) {
            self.sync_target();
        }
        Some((loss / norm as f64) as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::Transition;
    use nn::{Conv2d, Layer};

    /// A linear Q-network over one-hot states (a 1×1 convolution), for
    /// algorithm tests.
    struct LinearQ {
        net: Conv2d,
        opt: nn::Adam,
        actions: usize,
    }

    impl LinearQ {
        fn new(state_dim: usize, actions: usize, seed: u64, lr: f32) -> Self {
            LinearQ {
                net: Conv2d::new(state_dim, actions * 2, 1, seed),
                opt: nn::Adam::new(lr),
                actions,
            }
        }
    }

    impl LinearQ {
        fn pack(states: &[&[f32]]) -> nn::Tensor {
            let dim = states[0].len();
            let mut flat = Vec::with_capacity(states.len() * dim);
            for s in states {
                flat.extend_from_slice(s);
            }
            nn::Tensor::from_vec([states.len(), dim, 1, 1], flat)
        }

        fn unpack(&self, n: usize, y: &nn::Tensor) -> Vec<Vec<[f32; 2]>> {
            (0..n)
                .map(|b| {
                    (0..self.actions)
                        .map(|a| {
                            [
                                y.data()[b * self.actions * 2 + a * 2],
                                y.data()[b * self.actions * 2 + a * 2 + 1],
                            ]
                        })
                        .collect()
                })
                .collect()
        }
    }

    impl QNetwork for LinearQ {
        fn num_actions(&self) -> usize {
            self.actions
        }

        fn infer(&self, states: &[&[f32]], scratch: &mut Scratch) -> Vec<Vec<[f32; 2]>> {
            let y = self.net.infer(&Self::pack(states), scratch);
            let out = self.unpack(states.len(), &y);
            scratch.recycle(y);
            out
        }

        fn forward(&mut self, states: &[&[f32]]) -> Vec<Vec<[f32; 2]>> {
            let y = self.net.forward(&Self::pack(states));
            self.unpack(states.len(), &y)
        }

        fn apply_gradient(&mut self, grad: &[Vec<[f32; 2]>]) {
            let n = grad.len();
            let mut flat = vec![0.0f32; n * self.actions * 2];
            for (b, row) in grad.iter().enumerate() {
                for (a, g) in row.iter().enumerate() {
                    flat[b * self.actions * 2 + a * 2] = g[0];
                    flat[b * self.actions * 2 + a * 2 + 1] = g[1];
                }
            }
            let g = nn::Tensor::from_vec([n, self.actions * 2, 1, 1], flat);
            self.net.zero_grad();
            self.net.backward(&g);
            self.opt.step(&mut self.net);
        }

        fn state(&mut self) -> Vec<Vec<f32>> {
            nn::serialize::state(&mut self.net)
        }

        fn load_state(&mut self, s: &[Vec<f32>]) -> Result<(), String> {
            nn::serialize::load_state(&mut self.net, s)
        }
    }

    /// 5-state chain: action 0 = left, 1 = right. Reaching state 0 pays
    /// [0, 1]; reaching state 4 pays [1, 0]; both terminate.
    fn chain_step(s: usize, a: usize) -> (usize, [f32; 2], bool) {
        let s2 = if a == 1 { s + 1 } else { s - 1 };
        match s2 {
            0 => (0, [0.0, 1.0], true),
            4 => (4, [1.0, 0.0], true),
            _ => (s2, [0.0, 0.0], false),
        }
    }

    fn one_hot(s: usize) -> Vec<f32> {
        let mut v = vec![0.0; 5];
        v[s] = 1.0;
        v
    }

    /// The chain's decoder: a one-word key is the state index; every
    /// action is legal.
    fn decode(key: &[u64], features: &mut Vec<f32>, mask: Option<&mut Vec<bool>>) {
        features.extend(one_hot(key[0] as usize));
        if let Some(mask) = mask {
            mask.extend([true, true]);
        }
    }

    fn fill_replay(rng: &mut StdRng, transitions: usize) -> ReplayBuffer {
        let mut buf = ReplayBuffer::new(10_000);
        let mut s = 2usize;
        for _ in 0..transitions {
            let a = rng.random_range(0..2);
            let (s2, r, done) = chain_step(s, a);
            buf.push(Transition {
                state: Box::new([s as u64]),
                action: a,
                reward: r,
                next_state: Box::new([s2 as u64]),
                done,
            });
            s = if done { 2 } else { s2 };
        }
        buf
    }

    /// The greedy action at chain state `s` under `mask`, through the
    /// trainer's one acting path at ε = 0.
    fn greedy(dqn: &mut DoubleDqn<LinearQ>, s: usize, mask: &[bool]) -> Option<usize> {
        let mut rng = StdRng::seed_from_u64(0);
        dqn.act(&[&one_hot(s)], &[mask], 0.0, &mut rng)[0]
    }

    /// The online network's Q-values at chain state `s`.
    fn q_values(dqn: &mut DoubleDqn<LinearQ>, s: usize) -> Vec<[f32; 2]> {
        let mut scratch = Scratch::new();
        let mut q = dqn.online_mut().infer(&[&one_hot(s)], &mut scratch);
        q.pop().expect("batch of 1")
    }

    fn train_chain(w_area: f32, seed: u64) -> DoubleDqn<LinearQ> {
        let cfg = DqnConfig {
            gamma: 0.9,
            batch_size: 32,
            target_sync_every: 25,
            weight: [w_area, 1.0 - w_area],
            huber_delta: 1.0,
            min_replay: 100,
        };
        let online = LinearQ::new(5, 2, seed, 0.02);
        let target = LinearQ::new(5, 2, seed + 1, 0.02);
        let mut dqn = DoubleDqn::new(online, target, cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let replay = fill_replay(&mut rng, 2000);
        for _ in 0..800 {
            dqn.train_step(&replay, &mut rng, decode).unwrap();
        }
        dqn
    }

    #[test]
    fn learns_weight_dependent_policies() {
        // Area-weighted agent heads right (area reward); delay-weighted
        // heads left — the essence of scalarized multi-objective DQN.
        let mut right = train_chain(1.0, 3);
        let mut left = train_chain(0.0, 4);
        for s in 1..4 {
            assert_eq!(
                greedy(&mut right, s, &[true, true]),
                Some(1),
                "w=[1,0] at state {s}"
            );
            assert_eq!(
                greedy(&mut left, s, &[true, true]),
                Some(0),
                "w=[0,1] at state {s}"
            );
        }
    }

    #[test]
    fn q_values_approach_returns() {
        let mut dqn = train_chain(1.0, 5);
        // At state 3, going right pays [1, 0] immediately.
        let q = q_values(&mut dqn, 3);
        assert!(
            (q[1][0] - 1.0).abs() < 0.2,
            "Q_area(3, right) = {}",
            q[1][0]
        );
        assert!(q[1][1].abs() < 0.2, "Q_delay(3, right) = {}", q[1][1]);
        // At state 1, going right then optimally: γ²·1 discounted area value.
        let q1 = q_values(&mut dqn, 1);
        assert!(q1[1][0] > 0.4, "Q_area(1, right) = {}", q1[1][0]);
    }

    #[test]
    fn masking_restricts_selection() {
        let mut dqn = train_chain(1.0, 6);
        // Even though right is optimal, masking it forces left.
        assert_eq!(greedy(&mut dqn, 2, &[true, false]), Some(0));
        assert_eq!(greedy(&mut dqn, 2, &[false, false]), None);
    }

    #[test]
    fn epsilon_one_explores_uniformly() {
        let online = LinearQ::new(5, 2, 0, 0.01);
        let target = LinearQ::new(5, 2, 1, 0.01);
        let mut dqn = DoubleDqn::new(online, target, DqnConfig::paper(0.5));
        let mut rng = StdRng::seed_from_u64(0);
        let mut counts = [0usize; 2];
        for _ in 0..1000 {
            let a = dqn.act(&[&one_hot(2)], &[&[true, true]], 1.0, &mut rng)[0].unwrap();
            counts[a] += 1;
        }
        assert!(counts[0] > 350 && counts[1] > 350, "{counts:?}");
    }

    #[test]
    fn target_sync_counts_grad_steps() {
        let online = LinearQ::new(5, 2, 0, 0.01);
        let target = LinearQ::new(5, 2, 1, 0.01);
        let mut dqn = DoubleDqn::new(online, target, DqnConfig::paper(0.5));
        let mut rng = StdRng::seed_from_u64(0);
        let replay = fill_replay(&mut rng, 600);
        assert_eq!(dqn.grad_steps(), 0);
        for _ in 0..10 {
            dqn.train_step(&replay, &mut rng, decode);
        }
        assert_eq!(dqn.grad_steps(), 10);
    }

    #[test]
    fn no_training_below_min_replay() {
        let online = LinearQ::new(5, 2, 0, 0.01);
        let target = LinearQ::new(5, 2, 1, 0.01);
        let mut dqn = DoubleDqn::new(online, target, DqnConfig::paper(0.5));
        let mut rng = StdRng::seed_from_u64(0);
        let replay = fill_replay(&mut rng, 10);
        assert!(dqn.train_step(&replay, &mut rng, decode).is_none());
    }

    #[test]
    #[should_panic(expected = "decoded masks must cover every action")]
    fn short_decoded_mask_panics() {
        let online = LinearQ::new(5, 2, 0, 0.01);
        let target = LinearQ::new(5, 2, 1, 0.01);
        let mut dqn = DoubleDqn::new(online, target, DqnConfig::paper(0.5));
        let mut rng = StdRng::seed_from_u64(0);
        let replay = fill_replay(&mut rng, 600);
        dqn.train_step(&replay, &mut rng, |key, features, mask| {
            decode(key, features, None);
            if let Some(mask) = mask {
                mask.push(true);
            }
        });
    }

    #[test]
    fn trainer_state_roundtrip_resumes_sync_cycle() {
        let mut a = train_chain(0.5, 11);
        let state = a.save_state();
        // Serde round-trip through the value tree.
        let v = serde::Serialize::to_value(&state);
        let state: TrainerState = serde::Deserialize::from_value(&v).unwrap();
        let online = LinearQ::new(5, 2, 77, 0.02);
        let target = LinearQ::new(5, 2, 78, 0.02);
        let mut b = DoubleDqn::new(online, target, a.config().clone());
        b.load_state_snapshot(&state).unwrap();
        assert_eq!(b.grad_steps(), a.grad_steps());
        assert_eq!(b.online_mut().state(), a.online_mut().state());
        assert_eq!(b.target_mut().state(), a.target_mut().state());
        for s in 0..5 {
            assert_eq!(
                greedy(&mut a, s.clamp(1, 3), &[true, true]),
                greedy(&mut b, s.clamp(1, 3), &[true, true]),
            );
        }
    }

    #[test]
    #[should_panic(expected = "convex combination")]
    fn invalid_weight_rejected() {
        let online = LinearQ::new(5, 2, 0, 0.01);
        let target = LinearQ::new(5, 2, 1, 0.01);
        let mut cfg = DqnConfig::paper(0.5);
        cfg.weight = [0.9, 0.9];
        let _ = DoubleDqn::new(online, target, cfg);
    }
}
