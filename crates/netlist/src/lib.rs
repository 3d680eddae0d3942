//! # sdd-netlist
//!
//! Gate-level circuit substrate for statistical delay defect diagnosis.
//!
//! This crate provides the circuit model `C = (V, E, I, O, f)` of the paper
//! *Delay Defect Diagnosis Based Upon Statistical Timing Models* (DATE 2003)
//! minus the delay function `f` (which lives in `sdd-timing`):
//!
//! * [`Circuit`] — a cell-level directed acyclic netlist with named nodes,
//!   explicit fanin arcs ([`EdgeId`]), primary inputs and primary outputs.
//! * [`CircuitBuilder`] — validated construction.
//! * [`bench_format`] — an ISCAS-89 `.bench` reader and writer.
//! * [`generator`] — a seeded synthetic benchmark generator with
//!   size profiles matching the ISCAS-89 circuits evaluated in the paper
//!   (s1196 … s15850).
//! * [`logic`] — two-valued, vector-pair and 64-way bit-parallel logic
//!   simulation.
//!
//! Sequential circuits are handled under the full-scan assumption: a D
//! flip-flop is cut into a pseudo primary input (its output) and a pseudo
//! primary output (its data input) by [`Circuit::to_combinational`].
//!
//! ## Example
//!
//! ```
//! use sdd_netlist::{CircuitBuilder, GateKind};
//!
//! # fn main() -> Result<(), sdd_netlist::NetlistError> {
//! let mut b = CircuitBuilder::new("toy");
//! let a = b.input("a");
//! let c = b.input("c");
//! let g = b.gate("g", GateKind::Nand, &[a, c])?;
//! b.output(g);
//! let circuit = b.finish()?;
//! assert_eq!(circuit.num_nodes(), 3);
//! assert_eq!(circuit.primary_outputs(), &[g]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bench_format;
mod builder;
mod circuit;
mod cone;
mod error;
mod gate;
pub mod generator;
mod id;
pub mod logic;
pub mod profiles;

pub use builder::CircuitBuilder;
pub use circuit::{Circuit, Edge, NodeRef, MAX_EDGES, MAX_NODES};
pub use cone::{ConeView, EXTERNAL};
pub use error::NetlistError;
pub use gate::GateKind;
pub use id::{EdgeId, NodeId};
