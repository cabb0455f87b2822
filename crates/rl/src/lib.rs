//! Scalarized multi-objective Double-DQN (the paper's Section IV-B).
//!
//! This crate implements the RL algorithm of PrefixRL independent of the
//! prefix-graph domain:
//!
//! - [`replay::ReplayBuffer`] — uniform experience replay over vector-reward
//!   transitions with legality masks;
//! - [`schedule::EpsilonSchedule`] — linearly annealed ε-greedy exploration;
//! - [`qnetwork::QNetwork`] — the Q-value approximator, one method per
//!   job: `infer` (the evaluation forward, through `&self`), `forward`
//!   (the training forward), `apply_gradient`, and `state`/`load_state`
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
pub use qnetwork::QNetwork;
pub use replay::{ReplayBuffer, Transition};
pub use schedule::EpsilonSchedule;
pub use trainer::{DoubleDqn, DqnConfig, TrainerState};

/// Number of reward objectives (area, delay).
pub const OBJECTIVES: usize = 2;
