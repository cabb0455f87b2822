//! The Q-function interface consumed by the trainer.
//!
//! [`QNetwork`] has one method per job: [`QNetwork::infer`] is the
//! evaluation forward (running batch-norm statistics, no cache writes,
//! through `&self`), which acting and the Double-DQN next-action choice
//! use; [`QNetwork::infer_at`] is the same forward read at one action per
//! state, which the bootstrap values use (the convolutional network
//! computes only the output rows those actions read);
//! [`QNetwork::forward`] is the training forward that
//! [`QNetwork::apply_gradient`] backpropagates through; `state` and
//! `load_state` copy parameters for target sync and checkpointing.

use nn::Scratch;

/// A trainable multi-objective Q-value approximator over a fixed flat
/// action space.
///
/// Implementations map flattened state features to per-action,
/// per-objective Q-values `out[b][a] = [q_area, q_delay]`. The PrefixRL
/// convolutional network (Fig. 2 of the paper) implements this in
/// `prefixrl-core`; the trainer's unit tests use a linear network.
pub trait QNetwork {
    /// Number of flat actions (e.g. `2·N²` for the add/delete grid).
    fn num_actions(&self) -> usize;

    /// Evaluates Q-values for a batch of states, drawing transient buffers
    /// from `scratch`.
    fn infer(&self, states: &[&[f32]], scratch: &mut Scratch) -> Vec<Vec<[f32; 2]>>;

    /// The Q-values of one action per state, `out[b] = infer(states)[b][actions[b]]`
    /// bit for bit: the Double-DQN bootstrap reads the target network at
    /// one action per next state. The default runs [`QNetwork::infer`] and
    /// picks; a network whose outputs are local may compute less.
    fn infer_at(
        &self,
        states: &[&[f32]],
        actions: &[usize],
        scratch: &mut Scratch,
    ) -> Vec<[f32; 2]> {
        assert_eq!(states.len(), actions.len(), "one action per state");
        self.infer(states, scratch)
            .iter()
            .zip(actions)
            .map(|(q, &a)| q[a])
            .collect()
    }

    /// The training forward over a batch of states (batch statistics in
    /// batch-norm, backward caches written).
    fn forward(&mut self, states: &[&[f32]]) -> Vec<Vec<[f32; 2]>>;

    /// Backpropagates `grad[b][a] = [∂L/∂q_area, ∂L/∂q_delay]` through the
    /// most recent [`QNetwork::forward`] call and applies one optimizer
    /// step.
    fn apply_gradient(&mut self, grad: &[Vec<[f32; 2]>]);

    /// Snapshot of all parameters (for target-network sync and
    /// checkpointing).
    fn state(&mut self) -> Vec<Vec<f32>>;

    /// Restores parameters produced by [`QNetwork::state`].
    ///
    /// # Errors
    ///
    /// Fails on architecture mismatch.
    fn load_state(&mut self, state: &[Vec<f32>]) -> Result<(), String>;
}
