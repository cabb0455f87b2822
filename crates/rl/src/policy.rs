//! The shared action-selection policy (paper Eq. 6).
//!
//! PrefixRL selects actions by scalarizing the per-objective Q-values with
//! the agent's weight vector and taking the masked argmax, with ε-greedy
//! exploration during training. [`ScalarizedPolicy`] is the single
//! implementation every acting path routes through. All selection goes
//! through the **immutable** [`QInfer`] half of the network, so acting
//! never disturbs training state, and its batched entry points
//! ([`ScalarizedPolicy::greedy_actions`],
//! [`ScalarizedPolicy::select_actions_with`]) evaluate one forward pass
//! over many environments instead of a batch-of-1 per decision.

use crate::qnetwork::QInfer;
use nn::Scratch;
use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// ε-greedy scalarized action selection over any [`QInfer`].
///
/// The policy is a pure decision rule (the scalarization weight is its only
/// state), so it is `Copy` and can be shared freely between the trainer and
/// detached actor threads.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ScalarizedPolicy {
    weight: [f32; 2],
}

impl ScalarizedPolicy {
    /// Creates a policy for the scalarization weight `w = [w_area, w_delay]`.
    ///
    /// # Panics
    ///
    /// Panics unless the weight is a convex combination (nonnegative, sums
    /// to 1).
    pub fn new(weight: [f32; 2]) -> Self {
        assert!(
            weight.iter().all(|&w| w >= 0.0) && (weight.iter().sum::<f32>() - 1.0).abs() < 1e-5,
            "weight must be a convex combination"
        );
        ScalarizedPolicy { weight }
    }

    /// The scalarization weight.
    pub fn weight(&self) -> [f32; 2] {
        self.weight
    }

    /// Scalarizes a per-objective Q-value: `w · q`.
    #[inline]
    pub fn scalarize(&self, q: [f32; 2]) -> f32 {
        self.weight[0] * q[0] + self.weight[1] * q[1]
    }

    /// The masked scalarized argmax over precomputed Q-values; `None` when
    /// no action is legal.
    ///
    /// # Panics
    ///
    /// Panics if `q` and `mask` lengths differ.
    pub fn greedy_from_q(&self, q: &[[f32; 2]], mask: &[bool]) -> Option<usize> {
        assert_eq!(mask.len(), q.len(), "mask length mismatch");
        mask.iter()
            .enumerate()
            .filter(|&(_, &legal)| legal)
            .map(|(a, _)| (a, self.scalarize(q[a])))
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .map(|(a, _)| a)
    }

    /// The greedy action for one state (ε = 0).
    pub fn greedy_action<Q: QInfer + ?Sized>(
        &self,
        net: &Q,
        state: &[f32],
        mask: &[bool],
        scratch: &mut Scratch,
    ) -> Option<usize> {
        let q = net.infer(&[state], scratch).pop().expect("batch of 1");
        self.greedy_from_q(&q, mask)
    }

    /// Greedy actions for a batch of states in one forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `states` and `masks` lengths differ.
    pub fn greedy_actions<Q: QInfer + ?Sized>(
        &self,
        net: &Q,
        states: &[&[f32]],
        masks: &[&[bool]],
        scratch: &mut Scratch,
    ) -> Vec<Option<usize>> {
        assert_eq!(states.len(), masks.len(), "states/masks length mismatch");
        if states.is_empty() {
            return Vec::new();
        }
        net.infer(states, scratch)
            .iter()
            .zip(masks)
            .map(|(q, mask)| self.greedy_from_q(q, mask))
            .collect()
    }

    /// ε-greedy selection for a batch of states — **the** ε-greedy
    /// implementation of the workspace (Eq. 6 plus exploration): per state,
    /// with probability `epsilon` a uniform legal action, otherwise the
    /// masked scalarized argmax; `None` when no action is legal. The greedy
    /// forward pass is delegated to a caller-supplied evaluator — how the
    /// training loop picks every actor's action of a round with one
    /// forward while the coin draws and argmax logic stay here.
    ///
    /// Exploration coins (and random actions) are drawn in state order
    /// *before* the evaluator runs. The evaluator receives only the states
    /// whose coins came up greedy (in state order), all in one call, and
    /// must return one Q-row per state; a network serves as
    /// `|batch| net.infer(batch, &mut scratch)`.
    ///
    /// # Panics
    ///
    /// Panics if `states` and `masks` lengths differ.
    pub fn select_actions_with<F>(
        &self,
        states: &[&[f32]],
        masks: &[&[bool]],
        epsilon: f64,
        rng: &mut StdRng,
        infer: F,
    ) -> Vec<Option<usize>>
    where
        F: FnOnce(&[&[f32]]) -> Vec<Vec<[f32; 2]>>,
    {
        assert_eq!(states.len(), masks.len(), "states/masks length mismatch");
        let mut actions: Vec<Option<usize>> = Vec::with_capacity(states.len());
        let mut greedy_idx = Vec::new();
        for (i, mask) in masks.iter().enumerate() {
            match self.explore(mask, epsilon, rng) {
                Explore::Random(a) => actions.push(Some(a)),
                Explore::NoLegalAction => actions.push(None),
                Explore::Greedy => {
                    greedy_idx.push(i);
                    actions.push(None);
                }
            }
        }
        if !greedy_idx.is_empty() {
            let batch: Vec<&[f32]> = greedy_idx.iter().map(|&i| states[i]).collect();
            let q = infer(&batch);
            assert_eq!(q.len(), batch.len(), "evaluator returned a short batch");
            for (&i, q) in greedy_idx.iter().zip(&q) {
                actions[i] = self.greedy_from_q(q, masks[i]);
            }
        }
        actions
    }

    /// Draws the exploration coin for one state.
    fn explore(&self, mask: &[bool], epsilon: f64, rng: &mut StdRng) -> Explore {
        let legal: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter(|&(_, &m)| m)
            .map(|(a, _)| a)
            .collect();
        if legal.is_empty() {
            return Explore::NoLegalAction;
        }
        if rng.random::<f64>() < epsilon {
            return Explore::Random(legal[rng.random_range(0..legal.len())]);
        }
        Explore::Greedy
    }
}

enum Explore {
    Random(usize),
    NoLegalAction,
    Greedy,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qnetwork::QNetwork;

    /// A fixed-table Q-network: `q[s][a]`, one-hot states.
    struct TableQ {
        table: Vec<Vec<[f32; 2]>>,
    }

    impl QInfer for TableQ {
        fn num_actions(&self) -> usize {
            self.table[0].len()
        }

        fn infer(&self, states: &[&[f32]], _scratch: &mut Scratch) -> Vec<Vec<[f32; 2]>> {
            states
                .iter()
                .map(|s| {
                    let idx = s.iter().position(|&x| x == 1.0).unwrap();
                    self.table[idx].clone()
                })
                .collect()
        }
    }

    impl QNetwork for TableQ {
        fn forward(&mut self, states: &[&[f32]], _train: bool) -> Vec<Vec<[f32; 2]>> {
            self.infer(states, &mut Scratch::new())
        }

        fn apply_gradient(&mut self, _grad: &[Vec<[f32; 2]>]) {}

        fn state(&mut self) -> Vec<Vec<f32>> {
            Vec::new()
        }

        fn load_state(&mut self, _state: &[Vec<f32>]) -> Result<(), String> {
            Ok(())
        }
    }

    fn table() -> TableQ {
        TableQ {
            // State 0: area prefers action 0, delay prefers action 2.
            table: vec![
                vec![[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
                vec![[0.0, 0.2], [0.9, 0.9], [0.1, 0.0]],
            ],
        }
    }

    fn one_hot(s: usize) -> Vec<f32> {
        let mut v = vec![0.0; 2];
        v[s] = 1.0;
        v
    }

    #[test]
    fn greedy_tracks_weight() {
        let net = table();
        let mut s = Scratch::new();
        let area = ScalarizedPolicy::new([1.0, 0.0]);
        let delay = ScalarizedPolicy::new([0.0, 1.0]);
        let mask = [true, true, true];
        assert_eq!(
            area.greedy_action(&net, &one_hot(0), &mask, &mut s),
            Some(0)
        );
        assert_eq!(
            delay.greedy_action(&net, &one_hot(0), &mask, &mut s),
            Some(2)
        );
    }

    #[test]
    fn masking_restricts_and_empties() {
        let net = table();
        let mut s = Scratch::new();
        let p = ScalarizedPolicy::new([1.0, 0.0]);
        assert_eq!(
            p.greedy_action(&net, &one_hot(0), &[false, true, true], &mut s),
            Some(1)
        );
        assert_eq!(
            p.greedy_action(&net, &one_hot(0), &[false, false, false], &mut s),
            None
        );
    }

    #[test]
    fn batched_matches_single() {
        let net = table();
        let mut scratch = Scratch::new();
        let p = ScalarizedPolicy::new([0.5, 0.5]);
        let (s0, s1) = (one_hot(0), one_hot(1));
        let masks: Vec<&[bool]> = vec![&[true; 3], &[true, true, false]];
        let batched = p.greedy_actions(&net, &[&s0, &s1], &masks, &mut scratch);
        let singles = vec![
            p.greedy_action(&net, &s0, masks[0], &mut scratch),
            p.greedy_action(&net, &s1, masks[1], &mut scratch),
        ];
        assert_eq!(batched, singles);
    }

    #[test]
    fn epsilon_one_is_uniform_over_legal() {
        let net = table();
        let mut scratch = Scratch::new();
        let p = ScalarizedPolicy::new([0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(0);
        let mask = [true, false, true];
        let mut counts = [0usize; 3];
        for _ in 0..1000 {
            let a = p.select_actions_with(&[&one_hot(0)], &[&mask], 1.0, &mut rng, |b| {
                net.infer(b, &mut scratch)
            })[0]
                .unwrap();
            counts[a] += 1;
        }
        assert_eq!(counts[1], 0, "illegal action must never be chosen");
        assert!(counts[0] > 350 && counts[2] > 350, "{counts:?}");
    }

    #[test]
    fn epsilon_zero_batch_is_greedy() {
        let net = table();
        let mut scratch = Scratch::new();
        let p = ScalarizedPolicy::new([1.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let (s0, s1) = (one_hot(0), one_hot(1));
        let masks: Vec<&[bool]> = vec![&[true; 3], &[true; 3]];
        let actions = p.select_actions_with(&[&s0, &s1], &masks, 0.0, &mut rng, |b| {
            net.infer(b, &mut scratch)
        });
        assert_eq!(actions, vec![Some(0), Some(1)]);
    }

    #[test]
    fn shared_snapshot_selects_across_threads() {
        // The point of the QInfer split: one network value, many selecting
        // threads, no copies.
        let net = std::sync::Arc::new(table());
        let p = ScalarizedPolicy::new([1.0, 0.0]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let net = std::sync::Arc::clone(&net);
                scope.spawn(move || {
                    let mut scratch = Scratch::new();
                    assert_eq!(
                        p.greedy_action(&*net, &one_hot(0), &[true; 3], &mut scratch),
                        Some(0)
                    );
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "convex combination")]
    fn invalid_weight_rejected() {
        let _ = ScalarizedPolicy::new([0.9, 0.9]);
    }
}
