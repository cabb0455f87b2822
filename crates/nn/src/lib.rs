//! A minimal pure-Rust deep-learning library for the PrefixRL Q-network.
//!
//! The paper's RL/DL stack ran on GPUs with a mainstream framework; the Rust
//! ecosystem substitution (see DESIGN.md) is this crate: NCHW tensors, the
//! layers the paper's network is built from — `Conv2d` (same padding),
//! `BatchNorm2d` and `LeakyReLU` — and `Linear`, with full
//! backpropagation, the Adam optimizer, parameter (de)serialization and
//! finite-difference gradient checking. A network is a typed struct of
//! layers that implements [`Layer`] itself (the Q-network and its residual
//! blocks live in `prefixrl-core`'s `qnet` module).
//!
//! The design favours determinism *and* throughput: every matrix product
//! routes through the register-tiled, cache-blocked kernels in [`compute`]
//! (explicit AVX/AVX-512 lanes via [`simd`] on x86-64,
//! parallelized over disjoint row/sample panels on scoped threads, with a
//! fixed per-element reduction order so results are bit-identical at every
//! kernel tier and every thread count — see
//! [`compute::set_threads`] and [`simd::set_max_tier`]); transient buffers come
//! from a reusable [`Scratch`] arena threaded through
//! [`Layer::forward_with`]/[`Layer::backward_with`] so steady-state
//! training allocates nothing; and inference has a dedicated fast path —
//! immutable [`Layer::infer`] — that skips backward caching entirely. Layers own their parameters and
//! cached activations, a network is a [`Layer`] tree, and optimizers walk
//! parameters through a visitor, so target-network synchronization and
//! checkpointing are just state copies. (DESIGN.md §11.)
//!
//! # Example
//!
//! ```
//! use nn::{Adam, Conv2d, Layer, LeakyReLU, Tensor};
//!
//! let mut conv = Conv2d::new(3, 8, 3, 42);
//! let mut act = LeakyReLU::default();
//! let x = Tensor::zeros([2, 3, 8, 8]);
//! let y = act.forward(&conv.forward(&x, true), true);
//! assert_eq!(y.shape(), [2, 8, 8, 8]);
//! let grad = act.backward(&Tensor::ones([2, 8, 8, 8]));
//! conv.backward(&grad);
//! let mut adam = Adam::new(1e-3);
//! adam.step(&mut conv);
//! ```

#![warn(missing_docs)]

pub mod compute;
pub mod gradcheck;
pub mod layers;
pub mod optim;
pub mod serialize;
pub mod simd;
pub mod tensor;

pub use compute::{Scratch, ThreadPool};
pub use layers::{BatchNorm2d, Conv2d, Layer, LeakyReLU, Linear, Param};
pub use optim::{Adam, AdamState};
pub use tensor::Tensor;
