//! PrefixRL: deep-RL optimization of parallel prefix circuits.
//!
//! This crate is the paper's primary contribution assembled over the
//! substrate crates:
//!
//! - [`task`]: the pluggable workload layer — [`task::CircuitTask`]
//!   (adder, prefix-OR, incrementer, or any custom prefix computation)
//!   and [`task::ObjectiveBackend`] (analytical, synthesis, synthesis with
//!   power annotation);
//! - [`evaluator`]: [`evaluator::Evaluator`], one task scored by one
//!   backend through a memo store, and the `(area, delay)` objective-point
//!   currency with its strict/weak dominance definitions;
//! - [`cache`]: the bounded synthesis result store
//!   ([`cache::EvalCache`]) keyed by canonical graph state, with in-flight
//!   dedup of concurrent misses (Section IV-D reports 50%/10% hit rates at
//!   32b/64b), private to one evaluator or shared by several;
//! - [`mod@env`]: the PrefixRL MDP over legal prefix graphs (Section IV-A/B);
//! - [`qnet`]: the convolutional residual Q-network (Fig. 2) implementing
//!   [`rl::QNetwork`];
//! - [`agent`]: the scalarized Double-DQN training loop
//!   ([`agent::TrainLoop`]) producing area-delay-specialized adder
//!   designers, deterministic at every actor count;
//! - [`parallel`]: the thread pools of Section IV-D — the lockstep actor
//!   threads of a training run and parallel batch evaluation
//!   ([`parallel::evaluate_batch`]);
//! - [`experiment`]: the session layer — builder-configured multi-weight
//!   sweeps over one shared cache and streaming run events;
//! - [`checkpoint`]: full-state save/resume with bit-identical
//!   continuation;
//! - [`pareto`]: Pareto-front utilities used by every figure of the paper.
//!
//! # Example
//!
//! ```
//! use prefixrl_core::prelude::*;
//!
//! // Sweep three tiny agents across scalarization weights over one
//! // shared evaluation cache, and merge their fronts (Fig. 4 shape).
//! let experiment = Experiment::builder()
//!     .n(8)
//!     .weights(Weights::linspace(0.2, 0.8, 3))
//!     .base_config(AgentConfig::tiny(8, 0.5))
//!     .eval_threads(2)
//!     .build();
//! let result = experiment.run_quiet().unwrap();
//! assert_eq!(result.records.len(), 3);
//! assert!(!result.merged_front().is_empty());
//! assert!(result.cache.hits > 0); // agents shared the cache
//! ```

#![warn(missing_docs)]

pub mod agent;
pub mod cache;
pub mod checkpoint;
pub mod env;
pub mod evaluator;
pub mod experiment;
pub mod frontier;
pub mod parallel;
pub mod pareto;
pub mod qnet;
pub mod task;

/// Convenient re-exports for downstream users.
pub mod prelude {
    pub use crate::agent::{AgentConfig, TrainLoop};
    pub use crate::cache::EvalCache;
    pub use crate::checkpoint::{Checkpoint, SweepCheckpoint};
    pub use crate::env::{EnvConfig, PrefixEnv};
    pub use crate::evaluator::{Evaluator, ObjectivePoint};
    pub use crate::experiment::{
        CallbackObserver, CancelToken, ChannelObserver, Event, Experiment, ExperimentResult,
        NullObserver, RunObserver, RunRecord, Weights,
    };
    pub use crate::frontier::sweep_task_front;
    pub use crate::parallel::evaluate_batch;
    pub use crate::pareto::ParetoFront;
    pub use crate::qnet::{PrefixQNet, QNetConfig};
    pub use crate::task::{
        Adder, AnalyticalBackend, CircuitTask, Incrementer, ObjectiveBackend, PrefixOr,
        SynthesisBackend,
    };
}
