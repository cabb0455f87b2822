//! The shared action-selection policy (paper Eq. 6).
//!
//! PrefixRL selects actions by scalarizing the per-objective Q-values with
//! the agent's weight vector and taking the masked argmax, with ε-greedy
//! exploration during training. [`ScalarizedPolicy`] is the single
//! implementation: [`ScalarizedPolicy::greedy_from_q`] is the masked argmax
//! (also Double-DQN's next-action choice), and
//! [`ScalarizedPolicy::select_actions_with`] draws a round's exploration
//! coins and hands every greedy state to one evaluator call, so a round of
//! actors costs one forward pass.

use rand::prelude::*;
use serde::{Deserialize, Serialize};

/// ε-greedy scalarized action selection over precomputed Q-values.
///
/// The policy is a pure decision rule (the scalarization weight is its only
/// state), so it is `Copy`.
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

    /// A fixed Q-table over one-hot states. State 0: area prefers
    /// action 0, delay prefers action 2.
    const TABLE: [[[f32; 2]; 3]; 2] = [
        [[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]],
        [[0.0, 0.2], [0.9, 0.9], [0.1, 0.0]],
    ];

    /// The evaluator `select_actions_with` calls: each one-hot state's
    /// table row.
    fn lookup(states: &[&[f32]]) -> Vec<Vec<[f32; 2]>> {
        states
            .iter()
            .map(|s| TABLE[s.iter().position(|&x| x == 1.0).unwrap()].to_vec())
            .collect()
    }

    fn one_hot(s: usize) -> Vec<f32> {
        let mut v = vec![0.0; 2];
        v[s] = 1.0;
        v
    }

    #[test]
    fn greedy_tracks_weight() {
        let area = ScalarizedPolicy::new([1.0, 0.0]);
        let delay = ScalarizedPolicy::new([0.0, 1.0]);
        let mask = [true, true, true];
        assert_eq!(area.greedy_from_q(&TABLE[0], &mask), Some(0));
        assert_eq!(delay.greedy_from_q(&TABLE[0], &mask), Some(2));
    }

    #[test]
    fn masking_restricts_and_empties() {
        let p = ScalarizedPolicy::new([1.0, 0.0]);
        assert_eq!(p.greedy_from_q(&TABLE[0], &[false, true, true]), Some(1));
        assert_eq!(p.greedy_from_q(&TABLE[0], &[false, false, false]), None);
    }

    #[test]
    fn epsilon_one_is_uniform_over_legal() {
        let p = ScalarizedPolicy::new([0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(0);
        let mask = [true, false, true];
        let mut counts = [0usize; 3];
        for _ in 0..1000 {
            let a =
                p.select_actions_with(&[&one_hot(0)], &[&mask], 1.0, &mut rng, lookup)[0].unwrap();
            counts[a] += 1;
        }
        assert_eq!(counts[1], 0, "illegal action must never be chosen");
        assert!(counts[0] > 350 && counts[2] > 350, "{counts:?}");
    }

    #[test]
    fn epsilon_zero_batch_is_greedy() {
        let p = ScalarizedPolicy::new([1.0, 0.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let (s0, s1) = (one_hot(0), one_hot(1));
        let masks: Vec<&[bool]> = vec![&[true; 3], &[true; 3]];
        let actions = p.select_actions_with(&[&s0, &s1], &masks, 0.0, &mut rng, lookup);
        assert_eq!(actions, vec![Some(0), Some(1)]);
    }

    #[test]
    #[should_panic(expected = "convex combination")]
    fn invalid_weight_rejected() {
        let _ = ScalarizedPolicy::new([0.9, 0.9]);
    }
}
