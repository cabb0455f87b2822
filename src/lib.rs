//! # PrefixRL
//!
//! A Rust reproduction of **"PrefixRL: Optimization of Parallel Prefix
//! Circuits using Deep Reinforcement Learning"** (Roy et al., DAC 2021) —
//! deep-RL design of prefix adders with a timing-driven synthesis simulator
//! in the training loop.
//!
//! This umbrella crate re-exports the workspace:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`prefix_graph`] | grid prefix-graph state space, legalization, actions, classical structures, analytical model |
//! | [`netlist`] | gate-level IR, Nangate45-inspired + 8nm-class cell libraries, Zimmermann-style adder generation |
//! | [`synth`] | STA, timing-driven optimization (sizing/buffering/pin swap), PCHIP area-delay curves, power |
//! | [`nn`] | pure-Rust conv/batchnorm/residual network stack with Adam and backprop |
//! | [`rl`] | scalarized multi-objective Double-DQN, replay, schedules |
//! | [`prefixrl_core`] | the PrefixRL environment, Q-network, experiment sessions (sweeps, run events, checkpoint/resume), caching, multi-actor training, Pareto tooling |
//! | [`baselines`] | simulated annealing \[14\], pruned search \[15\], cross-layer ML \[10\], commercial chooser |
//!
//! # Quickstart
//!
//! ```
//! use prefixrl::prelude::*;
//! use std::sync::Arc;
//!
//! // Sweep three small agents across scalarization weights on the 8-bit
//! // prefix-OR task (priority-encoder spine) with the analytical backend.
//! // Any parallel prefix computation plugs in the same way: pick a
//! // CircuitTask (Adder, PrefixOr, Incrementer, or your own) and an
//! // ObjectiveBackend (AnalyticalBackend, or SynthesisBackend for the
//! // paper's synthesis-in-the-loop reward). All agents share one cached
//! // evaluation cache; their fronts merge into the result.
//! let experiment = Experiment::builder()
//!     .n(8)
//!     .task(Arc::new(PrefixOr))
//!     .backend(Arc::new(AnalyticalBackend))
//!     .weights(Weights::linspace(0.2, 0.8, 3))
//!     .base_config(AgentConfig::tiny(8, 0.5))
//!     .build();
//! let result = experiment.run_quiet().unwrap();
//! assert_eq!(result.records.len(), 3);
//! assert_eq!(result.task, "prefix-or");
//! assert!(!result.merged_front().is_empty());
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! harnesses regenerating every table and figure of the paper.

#![warn(missing_docs)]

pub use baselines;
pub use netlist;
pub use nn;
pub use prefix_graph;
pub use prefixrl_core;
pub use rl;
pub use synth;

/// One-stop imports for applications.
pub mod prelude {
    pub use baselines::{commercial_library, cross_layer, pruned_search, sa_frontier};
    pub use netlist::{adder, sim, Library, Netlist};
    pub use prefix_graph::{structures, Action, Node, PrefixGraph};
    pub use prefixrl_core::prelude::*;
    pub use synth::{AreaDelayCurve, OptimizerConfig, SweepConfig};
}
