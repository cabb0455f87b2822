//! Gate-level netlist IR, cell-library models and prefix-adder generation.
//!
//! This crate provides the circuit substrate under the PrefixRL environment:
//!
//! - [`cell`]: logic cell types (NAND/NOR/AOI/OAI/XNOR/INV/BUF/…) with
//!   functional semantics and drive strengths;
//! - [`library`]: calibrated cell libraries — a Nangate45-inspired 45 nm
//!   library (the paper's open-source flow) and a scaled "tech8" library
//!   standing in for the paper's industrial 8 nm library;
//! - [`ir`]: a mutable gate-level [`ir::Netlist`] with topological
//!   traversal, gate resizing and buffer insertion (the operations the
//!   synthesis optimizer performs);
//! - [`adder`]: generation of prefix-adder netlists from
//!   [`PrefixGraph`](prefix_graph::PrefixGraph)s in the alternating-polarity
//!   style of Zimmermann used by the paper (NAND/NOR, OAI/AOI, XNOR, INV);
//! - [`sim`]: functional simulation for equivalence checking against `u128`
//!   reference addition;
//! - [`verilog`]: structural Verilog export.
//!
//! # Example
//!
//! ```
//! use prefix_graph::structures;
//! use netlist::{adder, sim};
//!
//! let graph = structures::brent_kung(8);
//! let nl = adder::generate(&graph);
//! let sum = sim::add(&nl, 25, 17);
//! assert_eq!(sum, 42);
//! ```

#![warn(missing_docs)]

pub mod adder;
pub mod cell;
pub mod incrementer;
pub mod ir;
pub mod library;
mod polarity_tree;
pub mod prefix_or;
pub mod sim;
pub mod verilog;

pub use cell::{CellKind, CellType, Drive};
pub use ir::{Gate, GateId, NetId, Netlist};
pub use library::Library;
