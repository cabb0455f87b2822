//! `prefixrl-serve`: the resident multi-job optimization service
//! (DESIGN.md §13).
//!
//! The ROADMAP's north star is serving prefix-circuit optimization as a
//! production system, not as one-shot CLI runs — the shape related work
//! (PrefixAgent; RL-for-logic-optimization with reusable learned effort)
//! frames as an on-demand, query-driven design service. This crate is
//! that first layer:
//!
//! - [`Server`] — a long-running daemon speaking newline-delimited JSON
//!   (`prefixrl.serve.v1`, see [`protocol`]) on a local TCP socket;
//! - [`JobManager`] — a bounded FIFO queue of sweep jobs executed by
//!   worker threads as [`prefixrl_core::experiment::Experiment`] sessions
//!   over **one shared evaluation stack** (a server-wide
//!   [`prefixrl_core::cache::EvalCache`] store with per-`(task, backend)`
//!   bindings), with per-job
//!   [`prefixrl_core::experiment::CancelToken`]s, event tails, and a
//!   persisted queue that survives a `kill -9`;
//! - [`FrontierStore`] — the persistent cross-run artifact: every finished
//!   job's design pool merges into a disk-backed combined Pareto front per
//!   `(task, backend, width)` key, monotonically (merges never regress a
//!   stored front) and restart-safely (reloaded fronts are bit-identical).
//!   Persistence is a write-ahead merge log with periodic compaction
//!   (DESIGN.md §15): each merge fsyncs one appended record, not the
//!   whole store;
//! - [`query`] — the read tier: every merge publishes an immutable
//!   [`FrontierSnapshot`] (per-key fronts pre-sorted by delay with
//!   precomputed scalarization data) via an epoch-stamped `Arc` swap, so
//!   the `query`/`query_batch` verbs answer `best_at_delay`,
//!   `best_at_weight` and `range` lookups without ever taking the store
//!   mutex — reads never block on a concurrent merge;
//! - [`Client`] — the synchronous client the `prefixrl
//!   submit|status|cancel|frontier|query` subcommands are built on, over
//!   one persistent `TCP_NODELAY` connection with reconnect-on-error;
//! - [`cluster`] — the multi-node tier (DESIGN.md §16): stable-hash key
//!   partitioning ([`cluster::shard_of`] / [`cluster::Topology`]),
//!   WAL-shipping replication (each primary streams its fsynced merge
//!   records to ring followers via `repl_subscribe`, with epoch/offset
//!   resume and snapshot resync), and a fan-out [`cluster::Router`] that
//!   routes queries to owning shards, scatters batches, and fails reads
//!   over to followers when a primary is down.
//!
//! # Quickstart (in-process)
//!
//! ```
//! use prefixrl_serve::{Client, JobSpec, Query, ServeConfig, Server};
//!
//! let handle = Server::spawn(ServeConfig {
//!     addr: "127.0.0.1:0".to_string(), // ephemeral port
//!     ..ServeConfig::default()
//! })
//! .unwrap();
//! let client = Client::new(handle.addr().to_string());
//! let id = client
//!     .submit(&JobSpec {
//!         task: "adder".to_string(),
//!         backend: "analytical".to_string(),
//!         n: 8,
//!         weights: vec![0.3, 0.7],
//!         steps: 60,
//!         seed: 0,
//!     })
//!     .unwrap();
//! let done = client
//!     .wait_for_phase(id, &["done"], std::time::Duration::from_secs(120))
//!     .unwrap();
//! assert_eq!(done.get("phase").unwrap(), &serde_json::Value::String("done".into()));
//! let front = client.frontier("adder", "analytical", 8).unwrap();
//! assert!(!front.get("points").unwrap().as_array().unwrap().is_empty());
//! let best = client
//!     .query("adder", "analytical", 8, Query::BestAtDelay { delay: 1e9 }, false)
//!     .unwrap();
//! let result = best.get("result").unwrap();
//! assert_eq!(result.get("found").unwrap(), &serde_json::Value::Bool(true));
//! handle.shutdown().unwrap();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod jobs;
pub mod protocol;
pub mod query;
pub mod server;
pub mod store;

pub use client::{Client, ClientError};
pub use cluster::{Router, Topology};
pub use jobs::{JobManager, JobPhase, JobSpec, ServeConfig};
pub use query::{
    FrontView, FrontierSnapshot, Query, QueryPoint, SnapshotCell, StoredDesign, StoredFront,
};
pub use server::{Server, ServerHandle};
pub use store::FrontierStore;

/// Locks `m`, recovering the guard if another thread panicked while
/// holding it, so one panicking request or job worker does not wedge
/// every later caller of the same lock.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
