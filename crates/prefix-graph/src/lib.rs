//! Grid-based parallel prefix graph representation — the PrefixRL state space.
//!
//! An `N`-input [prefix graph](PrefixGraph) computes all prefix combinations
//! `z_{i:0} = x_i ∘ x_{i-1} ∘ … ∘ x_0` of an associative operator `∘`. Nodes
//! live on an `N×N` grid indexed by `(MSB, LSB)`: inputs on the diagonal,
//! outputs in column zero, and the `(N-1)(N-2)/2` interior positions define
//! the `O(2^{N²})` design space explored by PrefixRL (Roy et al., DAC 2021).
//!
//! The crate provides:
//!
//! - [`PrefixGraph`]: a legal prefix graph with canonical parent assignment,
//!   maintained through the paper's legalization procedure (Algorithm 1);
//! - [`Action`]: the add/delete node actions of the PrefixRL MDP, with
//!   legality masks;
//! - [`structures`]: classical constructions (ripple-carry, Sklansky,
//!   Kogge-Stone, Brent-Kung, Han-Carlson, Ladner-Fischer);
//! - [`analytical`]: the analytical area/delay model of Moto & Kaneko used
//!   for the paper's Fig. 6 comparison;
//! - [`features`]: the `N×N×4` node-feature tensor fed to the Q-network;
//! - [`render`]: ASCII and Graphviz visualization (paper Fig. 7).
//!
//! # Example
//!
//! ```
//! use prefix_graph::{PrefixGraph, Action, Node, structures};
//!
//! // Start from the ripple-carry graph (minimum size) …
//! let mut g = PrefixGraph::ripple(8);
//! assert_eq!(g.size(), 7); // N-1 operator nodes
//!
//! // … and add a node; legalization keeps the graph legal.
//! g.apply(Action::Add(Node::new(5, 2))).unwrap();
//! g.verify_legal().unwrap();
//!
//! // Classical structures are available as starting points and baselines.
//! let sk = structures::sklansky(8);
//! assert_eq!(sk.depth(), 3);
//! ```

#![warn(missing_docs)]

pub mod action;
pub mod analytical;
pub mod features;
pub mod graph;
pub mod node;
pub mod render;
pub mod structures;

pub use action::{Action, ActionError, ActionKind};
pub use analytical::AnalyticalMetrics;
pub use graph::{GraphSpec, KeyError, LegalityError, PrefixGraph};
pub use node::Node;
