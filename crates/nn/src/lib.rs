//! A minimal pure-Rust deep-learning library for the PrefixRL Q-network.
//!
//! The paper's RL/DL stack ran on GPUs with a mainstream framework; the Rust
//! ecosystem substitution (see DESIGN.md) is this crate: NCHW tensors, the
//! layers the paper's network is built from — `Conv2d` (same padding),
//! `BatchNorm2d` and `LeakyReLU` — with full backpropagation, the Adam
//! optimizer, parameter state copies and finite-difference gradient
//! checking. A network is a typed struct of layers that implements
//! [`Layer`] itself (the Q-network and its residual blocks live in
//! `prefixrl-core`'s `qnet` module).
//!
//! Each job has one pass: [`Layer::forward_with`] is the training forward
//! (batch statistics, backward caches), [`Layer::backward_with`] its
//! gradient, and the immutable [`Layer::infer`] the evaluation forward
//! (running statistics, no caches). Every convolution runs as
//! register-tiled implicit GEMM in [`compute`] (explicit AVX/AVX-512 lanes
//! via [`simd`] on x86-64), with a fixed per-element reduction order so
//! results are bit-identical at every kernel tier (see
//! [`simd::set_max_tier`]); transient buffers come from a reusable
//! [`Scratch`] arena threaded through every pass, so steady-state training
//! allocates nothing. The crate runs on the calling thread. Layers own
//! their parameters and cached activations, and optimizers walk parameters
//! through a visitor, so target-network synchronization and checkpointing
//! are just state copies ([`serialize::state`]). (DESIGN.md §11.)
//!
//! # Example
//!
//! ```
//! use nn::{Adam, Conv2d, Layer, LeakyReLU, Scratch, Tensor};
//!
//! let mut conv = Conv2d::new(3, 8, 3, 42);
//! let mut act = LeakyReLU::default();
//! let x = Tensor::zeros([2, 3, 8, 8]);
//! let y = act.forward(&conv.forward(&x));
//! assert_eq!(y.shape(), [2, 8, 8, 8]);
//! let grad = act.backward(&Tensor::ones([2, 8, 8, 8]));
//! conv.backward(&grad);
//! let mut adam = Adam::new(1e-3);
//! adam.step(&mut conv);
//! let mut scratch = Scratch::new();
//! let h = conv.infer(&x, &mut scratch);
//! assert_eq!(act.infer(&h, &mut scratch).shape(), [2, 8, 8, 8]);
//! ```

#![warn(missing_docs)]

pub mod compute;
pub mod gradcheck;
pub mod layers;
pub mod optim;
pub mod serialize;
pub mod simd;
pub mod tensor;

pub use compute::Scratch;
pub use layers::{BatchNorm2d, Conv2d, Layer, LeakyReLU, Param};
pub use optim::{Adam, AdamState};
pub use tensor::Tensor;
