//! Scalarized multi-objective Double-DQN (the paper's Section IV-B).
//!
//! This crate implements the RL algorithm of PrefixRL independent of the
//! prefix-graph domain:
//!
//! - [`replay::ReplayBuffer`] — uniform experience replay over vector-reward
//!   transitions that store opaque state keys (the caller decodes them into
//!   features and legality masks when a batch is sampled);
//! - [`schedule::EpsilonSchedule`] — linearly annealed ε-greedy exploration;
//! - [`qnetwork::QNetwork`] — the Q-value approximator, one method per
//!   job: `infer` (the evaluation forward, through `&self`), `infer_at`
//!   (the same forward read at one action per state, for bootstrap
//!   values), `forward` (the training forward), `apply_gradient`, and
//!   `state`/`load_state`
//!   (the paper's convolutional network lives in `prefixrl-core`; tests
//!   here use a small linear network);
//! - [`policy::ScalarizedPolicy`] — the one ε-greedy scalarized
//!   action-selection implementation (`argmax w·Q` over legal actions,
//!   Eq. 6), batched over a round's environments;
//! - [`trainer::DoubleDqn`] — scalarized Double-DQN: per-objective Q-values
//!   `Q = [Q_area, Q_delay]`, acting through [`DoubleDqn::act`], and
//!   targets `y = r + γ·Q_target(s', argmax_a w·Q_online(s', a))` (Eq. 4).
//!
//! # Example
//!
//! ```
//! use rand::prelude::*;
//! use rl::{ReplayBuffer, Transition, EpsilonSchedule};
//!
//! // States are stored as key words; a one-word key here.
//! let mut buf = ReplayBuffer::new(100);
//! buf.push(Transition {
//!     state: Box::new([0]),
//!     action: 0,
//!     reward: [1.0, -0.5],
//!     next_state: Box::new([1]),
//!     done: false,
//! });
//! assert_eq!(buf.len(), 1);
//!
//! // `DoubleDqn::train_step` takes a decoder like this one and calls it on
//! // each sampled key, appending to buffers it reuses: here a one-hot
//! // feature vector, and for a next state a mask of two legal actions.
//! let mut decode = |key: &[u64], features: &mut Vec<f32>, mask: Option<&mut Vec<bool>>| {
//!     features.extend((0..2).map(|i| if i == key[0] { 1.0 } else { 0.0 }));
//!     if let Some(mask) = mask {
//!         mask.extend([true, true]);
//!     }
//! };
//! let (mut features, mut masks) = (Vec::new(), Vec::new());
//! for t in buf.sample(&mut StdRng::seed_from_u64(0), 3) {
//!     decode(&t.next_state, &mut features, Some(&mut masks));
//! }
//! assert_eq!(features, [0.0, 1.0].repeat(3));
//! assert_eq!(masks.len(), 3 * 2);
//! let eps = EpsilonSchedule::linear(1.0, 0.0, 10);
//! assert_eq!(eps.value(0), 1.0);
//! assert_eq!(eps.value(10), 0.0);
//! ```

#![warn(missing_docs)]

pub mod policy;
pub mod qnetwork;
pub mod replay;
pub mod schedule;
pub mod trainer;

pub use policy::ScalarizedPolicy;
pub use qnetwork::QNetwork;
pub use replay::{ReplayBuffer, Transition};
pub use schedule::EpsilonSchedule;
pub use trainer::{DoubleDqn, DqnConfig, TrainerState};

/// Number of reward objectives (area, delay).
pub const OBJECTIVES: usize = 2;
