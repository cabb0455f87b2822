//! Scalarized multi-objective Double-DQN (the paper's Section IV-B).
//!
//! This crate implements the RL algorithm of PrefixRL independent of the
//! prefix-graph domain:
//!
//! - [`replay::ReplayBuffer`] — uniform experience replay over vector-reward
//!   transitions with legality masks;
//! - [`schedule::EpsilonSchedule`] — linearly annealed ε-greedy exploration;
//! - [`qnetwork::QInfer`] / [`qnetwork::QNetwork`] — the two halves of a
//!   Q-value approximator: an immutable inference interface (`&self`, so
//!   acting never disturbs training state) and the mutable training
//!   interface on top (the paper's
//!   convolutional network lives in `prefixrl-core`; tests here use a
//!   small linear network);
//! - [`policy::ScalarizedPolicy`] — the one ε-greedy scalarized
//!   action-selection implementation (`argmax w·Q` over legal actions,
//!   Eq. 6), shared by the trainer and the training loop, with batched
//!   variants for multi-environment acting;
//! - [`trainer::DoubleDqn`] — scalarized Double-DQN: per-objective Q-values
//!   `Q = [Q_area, Q_delay]`, acting through the shared policy, and targets
//!   `y = r + γ·Q_target(s', argmax_a w·Q_online(s', a))` (Eq. 4).
//!
//! # Example
//!
//! ```
//! use rl::{ReplayBuffer, Transition, EpsilonSchedule};
//!
//! let mut buf = ReplayBuffer::new(100);
//! buf.push(Transition {
//!     state: vec![0.0, 1.0],
//!     action: 0,
//!     reward: [1.0, -0.5],
//!     next_state: vec![1.0, 0.0],
//!     next_mask: vec![true, true],
//!     done: false,
//! });
//! assert_eq!(buf.len(), 1);
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
pub use qnetwork::{QInfer, QNetwork};
pub use replay::{ReplayBuffer, Transition};
pub use schedule::EpsilonSchedule;
pub use trainer::{DoubleDqn, DqnConfig, TrainerState};

/// Number of reward objectives (area, delay).
pub const OBJECTIVES: usize = 2;
